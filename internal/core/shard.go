package core

// Distributed-sweep orchestration: plan → execute-shard → merge. A
// coordinator builds the artifact plan, partitions it, and either runs
// one partition in-process (WriteShardCtx) or serializes it for a remote
// worker (WriteShardPlan → RunPlanFileCtx elsewhere). Shard result files
// merge back into one ResultSet (ReadShardFiles + wire.MergePartial, or
// MergeShardFilesPartial) that renders through harness.FromResults with
// no backend attached — the per-sample seed hashing makes the merged
// tables byte-identical to a monolithic run. See DESIGN.md, "Sharded
// sweep execution".

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/eval"
	"repro/internal/wire"
)

// shardMeta is this framework's sweep identity: the backend tag and seed
// every shard of one distributed sweep must share. The tag is the
// unwrapped backend's (not a Recorder's "record(...)" wrapper), so
// whether a worker also records never splits the sweep identity.
func (f *Framework) shardMeta(shard, shards int) wire.Meta {
	return wire.Meta{
		Backend: f.backendTag, Seed: f.cfg.Seed,
		Shard: shard, Shards: shards,
	}
}

// ShardMeta exposes the sweep identity for shard i of n — what a
// coordinator stamps on shard plans it builds itself.
func (f *Framework) ShardMeta(shard, shards int) wire.Meta {
	return f.shardMeta(shard, shards)
}

// ShardPlan builds shard i of n of the query plan for the named
// cell-based experiments ("all" = every cell-based artifact).
func (f *Framework) ShardPlan(experiments []string, shard, shards int) (*eval.Plan, wire.Meta, error) {
	full, err := f.Harness.PlanFor(experiments)
	if err != nil {
		return nil, wire.Meta{}, err
	}
	sub, err := full.Shard(shard, shards)
	if err != nil {
		return nil, wire.Meta{}, err
	}
	return sub, f.shardMeta(shard, shards), nil
}

// ExecuteShardCtx evaluates shard i of n of the experiments' plan;
// cancellation stops the evaluation pool promptly.
func (f *Framework) ExecuteShardCtx(ctx context.Context, experiments []string, shard, shards int) (*eval.ResultSet, wire.Meta, error) {
	plan, m, err := f.ShardPlan(experiments, shard, shards)
	if err != nil {
		return nil, wire.Meta{}, err
	}
	rs, err := f.source.RunPlanCtx(ctx, plan)
	if err != nil {
		return nil, wire.Meta{}, err
	}
	return rs, m, nil
}

// WriteShardCtx executes one shard and writes its wire result file — the
// worker side of a distributed sweep. A canceled worker stops promptly
// and leaves no result file (nor a temp) behind.
func (f *Framework) WriteShardCtx(ctx context.Context, path string, experiments []string, shard, shards int) error {
	rs, m, err := f.ExecuteShardCtx(ctx, experiments, shard, shards)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, func(out *os.File) error { return wire.WriteResults(out, m, rs) })
}

// WriteShardPlan serializes one shard's plan without executing it — the
// coordinator side when workers run elsewhere (see RunPlanFileCtx).
func (f *Framework) WriteShardPlan(path string, experiments []string, shard, shards int) error {
	plan, m, err := f.ShardPlan(experiments, shard, shards)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, func(out *os.File) error { return wire.WritePlan(out, m, plan.Coords()) })
}

// RunPlanFileCtx executes a serialized shard plan against this
// framework's backend and writes the shard result file. The plan must
// address this exact sweep: the backend tag and runner seed are validated
// so a worker configured differently from the coordinator fails loudly
// instead of producing cells that merge into a subtly wrong table.
// Cancellation stops the evaluation pool promptly and no result file
// appears — the supervised worker path, where a coordinator reaps
// timed-out or superseded attempts.
func (f *Framework) RunPlanFileCtx(ctx context.Context, planPath, outPath string) error {
	in, err := os.Open(planPath)
	if err != nil {
		return err
	}
	m, coords, err := wire.ReadPlan(in)
	in.Close()
	if err != nil {
		return err
	}
	if got := f.backendTag; m.Backend != got {
		return fmt.Errorf("core: plan is for backend %q, this worker runs %q", m.Backend, got)
	}
	if m.Seed != f.cfg.Seed {
		return fmt.Errorf("core: plan is for seed %d, this worker runs seed %d", m.Seed, f.cfg.Seed)
	}
	plan, err := eval.PlanFromCoords(coords)
	if err != nil {
		return err
	}
	rs, err := f.source.RunPlanCtx(ctx, plan)
	if err != nil {
		return err
	}
	return WriteFileAtomic(outPath, func(out *os.File) error { return wire.WriteResults(out, m, rs) })
}

// ReadShardFiles decodes shard result files, validating each as it loads.
func ReadShardFiles(paths []string) ([]wire.Shard, error) {
	shards := make([]wire.Shard, 0, len(paths))
	for _, path := range paths {
		in, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sh, err := wire.ReadResults(in)
		in.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// MergeShardFilesPartial reads and merges shard result files, in any
// order, for a possibly degraded sweep: shard indices with no file are
// reported (ascending), not refused. Identity mismatches, duplicate
// shards, and overlapping cells remain errors.
func MergeShardFilesPartial(paths []string) (*eval.ResultSet, wire.Meta, []int, error) {
	shards, err := ReadShardFiles(paths)
	if err != nil {
		return nil, wire.Meta{}, nil, err
	}
	return wire.MergePartial(shards)
}

// WriteFileAtomic writes path atomically: the payload goes to a unique temp
// file in the same directory (same filesystem, so the rename is atomic),
// is fsynced, and only then renamed into place. A crash — worker killed
// mid-write, full disk, pulled plug — can therefore never leave a
// half-valid file at path that a later merge reads as a complete shard;
// the first error through write, sync, and close wins.
//
// This is the single durable write path for wire/shard artifacts, and
// the goanalysis durables pass enforces that: a write-opened handle fed
// straight to wire.WriteResults/WritePlan is a vgen-check finding.
func WriteFileAtomic(path string, write func(*os.File) error) error {
	out, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := out.Name()
	err = write(out)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; the partial temp must not linger
		return err
	}
	return nil
}
