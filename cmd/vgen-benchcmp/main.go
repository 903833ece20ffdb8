// Command vgen-benchcmp diffs two BENCH_<date>.json files (the test2json
// streams `make bench` writes) with benchstat-style aggregation: samples
// are grouped per benchmark, summarized by median, and compared
// old-vs-new. It exits non-zero when any pinned hot-path bench regresses
// more than 10% in ns/op, which is what `make bench-compare` gates on.
//
// Usage:
//
//	vgen-benchcmp [old.json new.json]
//
// With no arguments it picks the two latest BENCH_*.json files in the
// working directory (older = baseline), ordered by the date and same-day
// suffix `make bench` puts in each name: BENCH_20260808.json, then
// BENCH_20260808.2.json, then BENCH_20260809.json. File modification
// times are not used; a checkout rewrites them all.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hotPathBenches are the pinned generation/evaluation hot paths: a >10%
// ns/op regression in any of them fails the comparison. Benches absent
// from either file (e.g. pre-refactor baselines) are skipped.
var hotPathBenches = []string{
	"BenchmarkHeadline",
	"BenchmarkFullPipelineEvaluation",
	"BenchmarkSchedulerRegions",
	"BenchmarkEvaluateBatch",
	"BenchmarkFrozenSample",
	"BenchmarkEncodeInto",
	"BenchmarkParseReference",
	// backend-tagged sweep throughput plus the shard decode+merge tax:
	// distributed-sweep overhead regressions gate like the hot paths
	"BenchmarkSweepThroughput/backend=family",
	"BenchmarkSweepThroughput/backend=replay",
	"BenchmarkShardMerge",
	// remote transport rows: loopback wire-stack tax at the pinned batch
	// sizes, and the per-attempt retry bookkeeping (breaker + backoff),
	// which must stay allocation-free
	"BenchmarkSweepThroughput/backend=remote/batch=1",
	"BenchmarkSweepThroughput/backend=remote/batch=8",
	"BenchmarkSweepThroughput/backend=remote/batch=32",
	"BenchmarkRetryBookkeeping",
	// persistent result store rows: the cold (compute + persist) and warm
	// (disk cache hit) sweep paths, the segment replay a warm run opens
	// with, and the raw resident-cell probe — a regression here erodes
	// exactly the speedup the store exists for
	"BenchmarkSweepThroughput/store=cold",
	"BenchmarkSweepThroughput/store=warm",
	"BenchmarkStoreOpen",
	"BenchmarkStoreLookup",
	// shared compiled-artifact rows (DESIGN.md Section 15): the cold and
	// warm per-sample compile paths and the plan-sharing sweep ablation —
	// the warm rows are the speedup the shared tiers exist for
	"BenchmarkEvaluateColdCompile",
	"BenchmarkEvaluateWarmCompile",
	"BenchmarkSweepThroughput/plans=fresh",
	"BenchmarkSweepThroughput/plans=shared",
}

const regressionLimit = 0.10

type sample struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
	n           int
}

// parseFile reassembles the test2json Output fragments into text and
// extracts one sample per benchmark result line.
func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action string
			Output string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return parseBenchText(text.String()), nil
}

var cpuSuffixRe = regexp.MustCompile(`-\d+$`)

func parseBenchText(text string) map[string][]sample {
	out := map[string][]sample{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := cpuSuffixRe.ReplaceAllString(fields[0], "")
		var s sample
		ok := false
		for i := 1; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				s.nsPerOp, ok = v, true
			case "allocs/op":
				s.allocsPerOp, s.hasAllocs = v, true
			}
		}
		if ok {
			out[name] = append(out[name], s)
		}
	}
	return out
}

// summarize reduces a benchmark's samples to their median ns/op (and
// median allocs/op), the benchstat aggregation for small sample counts.
func summarize(ss []sample) result {
	ns := make([]float64, 0, len(ss))
	allocs := make([]float64, 0, len(ss))
	for _, s := range ss {
		ns = append(ns, s.nsPerOp)
		if s.hasAllocs {
			allocs = append(allocs, s.allocsPerOp)
		}
	}
	r := result{nsPerOp: median(ns), n: len(ns)}
	if len(allocs) > 0 {
		r.allocsPerOp, r.hasAllocs = median(allocs), true
	}
	return r
}

func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// benchNameRe matches the names `make bench` writes: BENCH_<yyyymmdd>.json
// for a day's first recording, BENCH_<yyyymmdd>.<n>.json (n >= 2) for
// the same day's later ones.
var benchNameRe = regexp.MustCompile(`^BENCH_(\d{8})(?:\.(\d+))?\.json$`)

// benchOrder sorts bench file names oldest first by (date, same-day
// suffix), a name without a suffix counting as suffix 1. Names `make
// bench` cannot have written are dropped.
func benchOrder(names []string) []string {
	type benchFile struct {
		name string
		date string
		seq  int
	}
	var files []benchFile
	for _, name := range names {
		m := benchNameRe.FindStringSubmatch(filepath.Base(name))
		if m == nil {
			continue
		}
		seq := 1
		if m[2] != "" {
			n, err := strconv.Atoi(m[2])
			if err != nil {
				continue
			}
			seq = n
		}
		files = append(files, benchFile{name: name, date: m[1], seq: seq})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].date != files[j].date {
			return files[i].date < files[j].date
		}
		return files[i].seq < files[j].seq
	})
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.name
	}
	return out
}

func latestTwo() (string, string, error) {
	names, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", "", err
	}
	files := benchOrder(names)
	if len(files) < 2 {
		return "", "", fmt.Errorf("need two BENCH_<date>[.<n>].json files to compare, found %d", len(files))
	}
	return files[len(files)-2], files[len(files)-1], nil
}

func pct(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new/old-1))
}

func main() {
	var oldPath, newPath string
	switch len(os.Args) {
	case 1:
		var err error
		oldPath, newPath, err = latestTwo()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case 3:
		oldPath, newPath = os.Args[1], os.Args[2]
	default:
		fmt.Fprintln(os.Stderr, "usage: vgen-benchcmp [old.json new.json]")
		os.Exit(2)
	}

	oldSamples, err := parseFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", oldPath, err)
		os.Exit(2)
	}
	newSamples, err := parseFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", newPath, err)
		os.Exit(2)
	}

	var names []string
	for name := range oldSamples {
		if _, ok := newSamples[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "no common benchmarks between the two files")
		os.Exit(2)
	}

	pinned := map[string]bool{}
	for _, n := range hotPathBenches {
		pinned[n] = true
	}

	fmt.Printf("benchcmp %s -> %s\n", oldPath, newPath)
	fmt.Printf("%-34s %14s %14s %9s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op old->new")
	var regressions []string
	for _, name := range names {
		o := summarize(oldSamples[name])
		n := summarize(newSamples[name])
		allocCol := ""
		if o.hasAllocs && n.hasAllocs {
			allocCol = fmt.Sprintf("%.0f -> %.0f (%s)", o.allocsPerOp, n.allocsPerOp, pct(o.allocsPerOp, n.allocsPerOp))
		}
		mark := ""
		if pinned[name] {
			mark = " *"
			if o.nsPerOp > 0 && n.nsPerOp/o.nsPerOp-1 > regressionLimit {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f -> %.0f ns/op (%s)", name, o.nsPerOp, n.nsPerOp, pct(o.nsPerOp, n.nsPerOp)))
				mark = " !"
			}
		}
		fmt.Printf("%-34s %14.1f %14.1f %9s  %s%s\n",
			name, o.nsPerOp, n.nsPerOp, pct(o.nsPerOp, n.nsPerOp), allocCol, mark)
	}
	fmt.Println("(* pinned hot path, ! pinned regression)")

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nFAIL: %d pinned hot-path bench(es) regressed >%.0f%% ns/op:\n",
			len(regressions), 100*regressionLimit)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}
