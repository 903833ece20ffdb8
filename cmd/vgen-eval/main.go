// Command vgen-eval runs the paper's evaluation sweeps and regenerates its
// tables and figures — in one process, or sharded across many.
//
// Usage:
//
//	vgen-eval [-seed N] [-n N] [-quick] [-corpus-files N] [-workers N]
//	          [-cache-stats]
//	          [-backend NAME] [-record FILE] [-replay FILE]
//	          [-endpoint URL] [-auth-env VAR] [-batch N]
//	          [-remote-timeout D] [-remote-budget D]
//	          [-shards N -shard I -emit out.jsonl]
//	          [-emit-plan plan.jsonl] [-from-plan plan.jsonl -emit out.jsonl]
//	          [-merge a.jsonl,b.jsonl,... [-allow-partial]]
//	          [-store DIR [-store-stats]]
//	          [-store DIR -store-query k=v,... | -store-diff A..B]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	          [-experiment all|table1|table2|table3|table4|fig6|fig7|headline|ablation|corpus|gallery|passk|problems|lint|list]
//
// A plain run takes the same cell path as every sharded one: it plans
// every cell the selected artifacts consume, runs that plan once, and
// renders the tables and figures from the results. Only the artifacts
// that are not built from cells (table1, table2, ablation, corpus,
// gallery, lint) render live.
//
// -quick restricts the sweep to t=0.1 and small n, which preserves the
// best-temperature table values (best is t=0.1 by construction and in the
// paper) while running in seconds.
//
// -backend selects the generation backend by its name in core's backend
// table (family, mutant, remote, replay — `-backend list` prints names
// with descriptions). -record captures every produced sample to a JSONL file;
// -replay serves a recording back through the replay backend,
// reproducing the recorded sweep's statistics exactly (giving -replay
// alone implies -backend replay; next to another -backend it is a usage
// error). The backend and sweep flags are core's (core.BindFlags), shared
// with vgen-coord; every error resolving them, an unknown -backend
// included, exits 2 before any backend is built.
//
// -endpoint dials a vgen-serve instance and implies -backend remote
// (DESIGN.md Section 13): completions run through the retrying,
// circuit-broken, batching HTTP transport, with a per-attempt deadline
// (-remote-timeout), a whole-sweep deadline (-remote-budget) and a
// batch width (-batch); the retry schedule and breaker are fixed. A
// request gets 4 transport attempts, composing *under* the coordinator's
// shard retries: a cell whose transport budget exhausts renders as an
// explicit missing cell (non-zero exit), which a supervised run then
// retries at shard granularity. -auth-env names the environment variable
// holding the bearer token (the secret never appears on a command line).
// Remote runs auto-record to remote-record.jsonl (or <emit>.rec.jsonl
// when sharded) so they replay offline; -record="" disables.
//
// Distributed sweeps (see DESIGN.md, "Sharded sweep execution"): -shards
// N -shard I -emit runs the I-th of N partitions of the selected
// experiments' query plan and serializes its per-cell stats; -merge
// combines the N result files and renders the tables byte-identically to
// the monolithic run, with no backend construction at all. -emit-plan
// writes the shard's serialized plan instead of executing it, and
// -from-plan executes such a plan file (validating it addresses this
// worker's backend and seed) — the coordinator/worker split for running
// shards on machines that don't share flags. Only cell-based experiments
// (table3, table4, fig6, fig7, headline, passk, problems) shard;
// -experiment all selects exactly those in emit/merge modes.
//
// A -merge missing some of its sweep's shards fails by default (a table
// silently rendered from partial data is the worst outcome a distributed
// sweep can have). -allow-partial instead renders what is present and
// prints a deterministic report of the missing shards and exactly which
// cells their absence left uncovered. Supervised end-to-end runs —
// retry, work-stealing, resume — live in the vgen-coord command.
//
// Evaluation shares work process-wide (DESIGN.md Section 15): prompts
// and testbenches are parsed once, and each distinct candidate is
// compiled and simulated once for all prompt levels whose prompts have
// the same tokens, its verdict kept in a memo — identical output, far
// less work. The verdict memo holds 4 MiB of accounted bytes;
// -cache-stats prints its counters and the per-runner outcome cache's
// to stderr after the run.
//
// -store DIR attaches the persistent result store (DESIGN.md Section 14):
// evaluated cells persist under the sweep identity (backend tag + seed),
// warm cells are served from disk with zero backend calls, and an
// interrupted run resumes from the last durable cell. -store-stats prints
// the hit/miss/persist counters after the run — a fully warm sweep
// reports 0 misses. With -merge, shard results additionally merge back
// into the store. -store-query lists resident cells by filter and
// -store-diff compares two sweep identities ('[backend@]seed..[backend@]seed'),
// both without building any backend.
//
// -cpuprofile/-memprofile capture pprof profiles from the real binary
// under real sweep traffic, so hot spots can be read off production-shaped
// runs rather than microbenches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/verdict"
	"repro/internal/wire"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen-eval: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a command-line error and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	shared := core.BindFlags(flag.CommandLine)
	experiment := flag.String("experiment", "all", "which artifact to regenerate")
	cacheStats := flag.Bool("cache-stats", false, "print verdict memo and outcome cache counters to stderr after the run")
	record := flag.String("record", "", "capture every produced sample to this JSONL file")
	shards := flag.Int("shards", 1, "total shard count of a distributed sweep")
	shard := flag.Int("shard", 0, "this worker's shard index (0-based)")
	emit := flag.String("emit", "", "run one shard and write its wire result file here (requires cell-based -experiment)")
	emitPlan := flag.String("emit-plan", "", "write this shard's serialized query plan here instead of executing it")
	fromPlan := flag.String("from-plan", "", "execute a serialized shard plan file (validates backend tag and seed; requires -emit)")
	merge := flag.String("merge", "", "comma-separated shard result files to merge and render (no backend is built)")
	allowPartial := flag.Bool("allow-partial", false, "merge whatever shards are present, report the missing shards/cells to stderr, and exit 0 (default: missing shards are an error)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	storeDir := flag.String("store", "", "persistent result store directory: warm cells are served from disk, new cells persist for later runs")
	storeStats := flag.Bool("store-stats", false, "print the store's hit/miss/persist counters to stderr after the run")
	storeQuery := flag.String("store-query", "", "list store cells matching a key=value,... filter (backend, seed, model, variant, problem, level, temp, n; 'all' lists everything) and exit")
	storeDiff := flag.String("store-diff", "", "compare two sweep identities in the store, 'A..B' with each side '[backend@]seed', and exit")
	flag.Parse()

	cfg, err := shared.Resolve()
	if err != nil {
		usage("%v", err)
	}
	if cfg.Backend == "list" {
		core.ListBackends(os.Stdout)
		return
	}

	if *experiment == "list" {
		for _, it := range harness.ExperimentIndex() {
			fmt.Println(it)
		}
		return
	}

	// Store query modes: read-only inspection of a result store, no
	// framework (backend, corpus, models) construction at all.
	if *storeQuery != "" || *storeDiff != "" {
		if *storeDir == "" {
			usage("-store-query/-store-diff need -store DIR (the store to inspect)")
		}
		st, err := store.Open(*storeDir)
		if err != nil {
			fail("%v", err)
		}
		defer st.Close()
		switch {
		case *storeQuery != "":
			runStoreQuery(st, *storeQuery)
		default:
			runStoreDiff(st, *storeDiff)
		}
		return
	}

	if _, err := harness.Select(*experiment, false); err != nil {
		usage("%v (try -experiment list)", err)
	}

	sharded := *emit != "" || *emitPlan != "" || *fromPlan != ""
	if sharded && *merge != "" {
		usage("-merge runs coordinator-side; it conflicts with -emit/-emit-plan/-from-plan")
	}
	if *fromPlan != "" && *emit == "" {
		usage("-from-plan needs -emit for the shard's result file")
	}
	if *emitPlan != "" && *emit != "" {
		usage("-emit-plan writes the plan without executing it; it conflicts with -emit (run the plan later with -from-plan)")
	}
	if *fromPlan != "" {
		// The plan file's header defines the cell set and shard identity; a
		// -shard/-shards/-experiment given alongside would be silently
		// overridden — the same misconfiguration class as -shards without
		// -emit, so reject it rather than let two workers compute one shard.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shard", "shards", "experiment":
				usage("-%s is defined by the plan file's header; drop it when using -from-plan", f.Name)
			}
		})
	}
	if (*shards != 1 || *shard != 0) && !sharded {
		// Silently running the full sweep would make N workers each do N
		// times the intended work with no error.
		usage("-shards/-shard select a partition to run; add -emit out.jsonl (or -emit-plan) to execute it")
	}
	if sharded && *fromPlan == "" {
		// Fail the non-cell case here, in milliseconds, not after core.New
		// has built the corpus and trained the model family.
		rejectNonCell(*experiment, "-emit/-emit-plan")
	}

	// Merge mode: combine shard results and render. No backend, corpus, or
	// model is constructed — the tables regenerate from serialized stats.
	if *merge != "" {
		rejectNonCell(*experiment, "-merge") // before any file work
		paths := strings.Split(*merge, ",")
		shardFiles, err := core.ReadShardFiles(paths)
		if err != nil {
			fail("%v", err)
		}
		rs, m, missingShards, err := wire.MergePartial(shardFiles)
		if err != nil {
			fail("%v", err)
		}
		h := harness.FromResults(rs, cfg.Sweep)
		if len(missingShards) > 0 && !*allowPartial {
			fail("shard %d of %d missing (its cells are unserved); rerun it, or pass -allow-partial to render what is here",
				missingShards[0], m.Shards)
		}
		fmt.Fprintf(os.Stderr, "merged %d of %d shards (backend %q, seed %d): %d cells\n",
			m.Shards-len(missingShards), m.Shards, m.Backend, m.Seed, rs.Len())
		mergeShardSummary(shardFiles, m, *storeDir)
		if err := harness.Print(os.Stdout, *experiment, h, nil); err != nil {
			fail("%v", err)
		}
		missing := rs.Missing()
		if len(missingShards) > 0 {
			// Deterministic partial report: which shards are absent and
			// exactly which cells their absence left uncovered.
			fmt.Fprintf(os.Stderr, "PARTIAL merge: missing shard(s) %v\n", missingShards)
			sort.Slice(missing, func(i, j int) bool { return missing[i].Less(missing[j]) })
		}
		if len(missing) > 0 {
			for i, c := range missing {
				if i == 8 {
					fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(missing)-8)
					break
				}
				fmt.Fprintf(os.Stderr, "  missing cell %+v\n", c)
			}
			if !*allowPartial {
				fail("merged shards do not cover %d cell(s) of the requested artifacts", len(missing))
			}
			fmt.Fprintf(os.Stderr, "rendered with %d cell(s) missing (zeros in their place)\n", len(missing))
		}
		return
	}

	stopCPU := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	if cfg.Backend == "remote" && *emitPlan == "" {
		// Every remote run auto-pairs with a recording so it is replayable
		// offline (-replay serves it back with no server at all). An explicit
		// -record — including -record="" to opt out — wins; the default name
		// is shard-qualified so supervised workers never clobber each other.
		recordSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "record" {
				recordSet = true
			}
		})
		if !recordSet {
			*record = "remote-record.jsonl"
			if *emit != "" {
				*record = *emit + ".rec.jsonl"
			}
			fmt.Fprintf(os.Stderr, "recording remote samples to %s (disable with -record='')\n", *record)
		}
	}

	cfg.Record, cfg.StoreDir = *record, *storeDir
	fw, err := core.New(cfg)
	if err != nil {
		stopCPU()
		fail("%v", err)
	}

	// SIGINT/SIGTERM cancel the evaluation pool promptly — in-flight work
	// stops and no partial result file appears, so a supervising
	// coordinator (or an impatient operator) can kill a worker without
	// leaving state a later merge could trip over.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	exps := []string{*experiment}
	switch {
	case *fromPlan != "":
		err = fw.RunPlanFileCtx(ctx, *fromPlan, *emit)
	case *emitPlan != "":
		err = fw.WriteShardPlan(*emitPlan, exps, *shard, *shards)
	case *emit != "":
		err = fw.WriteShardCtx(ctx, *emit, exps, *shard, *shards)
	default:
		// A plain run plans, runs, then renders, like every other path.
		_, err = fw.Render(ctx, os.Stdout, *experiment)
	}
	stop()
	if err != nil {
		stopCPU()
		fw.Close()
		fail("%v", err)
	}

	// Finish the CPU profile before anything that can exit, so a
	// memprofile failure never leaves a truncated cpuprofile behind.
	stopCPU()

	if *cacheStats {
		printCacheStats(fw.Runner)
	}

	// Store accounting comes before Close (which seals the store). A
	// persistence failure is loud: the rendered output above is correct,
	// but the warmth it should have banked is not durable.
	if fw.StoreSource != nil {
		if *storeStats {
			s := fw.StoreSource.Stats()
			fmt.Fprintf(os.Stderr, "store: %d hits, %d misses, %d persisted, %d resident\n",
				s.Hits, s.Misses, s.Persisted, fw.Store.Len())
		}
		if err := fw.StoreSource.Err(); err != nil {
			fw.Close()
			fail("%v", err)
		}
	}

	if err := fw.Close(); err != nil {
		fail("%v", err)
	}

	// A backend that failed to produce cells (a remote transport out of
	// retries) rendered zeros in their place. Render first so the partial
	// output exists, then fail loudly — a silently short table is the
	// worst outcome a degraded backend can have.
	if fails := fw.Runner.Failures(); len(fails) > 0 {
		for i, f := range fails {
			if i == 8 {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(fails)-8)
				break
			}
			fmt.Fprintf(os.Stderr, "  unserved cell %+v: %v\n", f.Coord, f.Err)
		}
		fail("backend failed to serve %d cell(s); their stats rendered as zeros", len(fails))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile: %v", err)
		}
		f.Close()
	}
}

// printCacheStats reports the shared verdict memo (DESIGN.md Section 15)
// next to the per-runner outcome cache, both to stderr: memo hits are
// candidates that repeat a simulated source after truncation, and a
// sweep that outgrows a tier's budget shows evictions.
func printCacheStats(r *eval.Runner) {
	ss := verdict.SharedStats()
	fmt.Fprintf(os.Stderr, "verdict memo: %d hits, %d misses, %d evicted, %d entries, %d testbenches, %d prompt classes for %d prompts, %d bytes\n",
		ss.DesignHits, ss.DesignMisses, ss.DesignEvicted, ss.Designs, ss.Skeletons, ss.PromptClasses, ss.Prompts, ss.DesignBytes)
	oc := r.CacheStats()
	fmt.Fprintf(os.Stderr, "outcome cache: %d entries, %d bytes, %d evicted\n",
		oc.Entries, oc.Bytes, oc.Evicted)
}

// rejectNonCell exits 2 when -experiment selects an artifact the sharded
// and merged paths cannot compute: "all" means every cell-based artifact,
// anything else must itself be cell-based.
func rejectNonCell(experiment, what string) {
	if _, err := harness.Select(experiment, true); err != nil {
		usage("%s: %v", what, err)
	}
}

// mergeShardSummary prints one line per merged shard, ascending by shard
// index: its cell count and — when a store is attached — how many of its
// cells the store already held versus newly banked by this merge. Shard
// results merge back into the store so a later sweep under the same
// identity starts warm from distributed work too.
func mergeShardSummary(shardFiles []wire.Shard, m wire.Meta, storeDir string) {
	var st *store.Store
	id := store.Identity{Backend: m.Backend, Seed: m.Seed}
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir)
		if err != nil {
			fail("%v", err)
		}
	}
	sort.Slice(shardFiles, func(i, j int) bool { return shardFiles[i].Meta.Shard < shardFiles[j].Meta.Shard })
	for _, sh := range shardFiles {
		if st == nil {
			fmt.Fprintf(os.Stderr, "shard %d: %d cell(s)\n", sh.Meta.Shard, sh.Set.Len())
			continue
		}
		fresh, resident, err := st.PutSet(id, sh.Set)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "shard %d: %d cell(s), %d already in store, %d newly persisted\n",
			sh.Meta.Shard, sh.Set.Len(), resident, fresh)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fail("%v", err)
		}
	}
}

// parseFilter parses the -store-query spec: a comma-separated key=value
// list over backend, seed, model, variant, problem, level, temp (a float
// temperature, keyed in thousandths like everything else), and n. "all"
// (or empty) matches everything.
func parseFilter(spec string) (store.Filter, error) {
	var f store.Filter
	if spec == "all" || spec == "" {
		return f, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("filter term %q is not key=value", kv)
		}
		switch k {
		case "backend":
			f.Backend = v
		case "model":
			f.Model = v
		case "variant":
			f.Variant = v
		case "seed":
			i, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return f, fmt.Errorf("filter seed %q: %w", v, err)
			}
			f.Seed = &i
		case "temp":
			t, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return f, fmt.Errorf("filter temp %q: %w", v, err)
			}
			milli := gen.TempMilli(t)
			f.TempMilli = &milli
		case "problem", "level", "n":
			i, err := strconv.Atoi(v)
			if err != nil {
				return f, fmt.Errorf("filter %s %q: %w", k, v, err)
			}
			switch k {
			case "problem":
				f.Problem = &i
			case "level":
				f.Level = &i
			default:
				f.N = &i
			}
		default:
			return f, fmt.Errorf("unknown filter key %q (have backend, seed, model, variant, problem, level, temp, n)", k)
		}
	}
	return f, nil
}

// runStoreQuery lists matching cells, one deterministic line each.
func runStoreQuery(st *store.Store, spec string) {
	f, err := parseFilter(spec)
	if err != nil {
		fail("-store-query: %v", err)
	}
	entries := st.Query(f)
	for _, e := range entries {
		fmt.Printf("%s\t%s/%s p%02d L%d t%.3f n%d\tsamples=%d compiled=%d passed=%d sum_lat=%g\n",
			e.ID, e.Coord.Model, e.Coord.Variant, e.Coord.Problem, e.Coord.Level,
			e.Coord.Temperature(), e.Coord.N,
			e.Stats.Samples, e.Stats.Compiled, e.Stats.Passed, e.Stats.SumLat)
	}
	fmt.Fprintf(os.Stderr, "%d of %d cell(s) matched\n", len(entries), st.Len())
}

// resolveIdentity parses one -store-diff side, filling in the backend
// tag when the side is a bare seed and exactly one resident identity
// carries that seed (backend tags can embed seed-derived detail, so
// distinct seeds routinely mean distinct tags).
func resolveIdentity(st *store.Store, s string) (store.Identity, error) {
	id, err := store.ParseIdentity(s)
	if err != nil {
		return id, err
	}
	if id.Backend == "" {
		var tags []string
		for _, have := range st.Identities() {
			if have.Seed == id.Seed {
				tags = append(tags, have.Backend)
			}
		}
		if len(tags) != 1 {
			return id, fmt.Errorf("store holds %d identit(ies) with seed %d; qualify the seed as 'backend@seed'", len(tags), id.Seed)
		}
		id.Backend = tags[0]
	}
	return id, nil
}

// runStoreDiff renders the coordinate-aligned comparison of two sweep
// identities — the incremental-recompute view: what a seed or backend
// change actually moved.
func runStoreDiff(st *store.Store, spec string) {
	aStr, bStr, ok := strings.Cut(spec, "..")
	if !ok {
		fail("-store-diff: %q is not 'A..B' (each side '[backend@]seed')", spec)
	}
	a, err := resolveIdentity(st, aStr)
	if err != nil {
		fail("-store-diff: %v", err)
	}
	b, err := resolveIdentity(st, bStr)
	if err != nil {
		fail("-store-diff: %v", err)
	}
	d := st.Diff(a, b)
	fmt.Printf("diff %s .. %s: %d same, %d changed, %d only in A, %d only in B\n",
		a, b, d.Same, len(d.Changed), len(d.OnlyA), len(d.OnlyB))
	for _, e := range d.Changed {
		fmt.Printf("changed %s/%s p%02d L%d t%.3f n%d\tA samples=%d compiled=%d passed=%d sum_lat=%g\tB samples=%d compiled=%d passed=%d sum_lat=%g\n",
			e.Coord.Model, e.Coord.Variant, e.Coord.Problem, e.Coord.Level, e.Coord.Temperature(), e.Coord.N,
			e.A.Samples, e.A.Compiled, e.A.Passed, e.A.SumLat,
			e.B.Samples, e.B.Compiled, e.B.Passed, e.B.SumLat)
	}
	for _, c := range d.OnlyA {
		fmt.Printf("only-A  %s/%s p%02d L%d t%.3f n%d\n", c.Model, c.Variant, c.Problem, c.Level, c.Temperature(), c.N)
	}
	for _, c := range d.OnlyB {
		fmt.Printf("only-B  %s/%s p%02d L%d t%.3f n%d\n", c.Model, c.Variant, c.Problem, c.Level, c.Temperature(), c.N)
	}
}
