package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own child processes, so the
// smoke test covers the re-exec path too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

type namedMetric struct{ Name, Unit string }

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedMetric           `json:"end_to_end"`
	PerLayer  []namedMetric           `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloads runs every workload of BENCHMARK.json once untraced and
// once traced at the tiny scale, and checks that each run verifies its
// outputs and reports exactly the metrics BENCHMARK.json names, with
// their units.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace, want := range [][]namedMetric{bf.EndToEnd, bf.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				t.Parallel()
				runWorkload(t, w.Name, trace, want)
			})
		}
	}
}

func runWorkload(t *testing.T, name string, trace int, want []namedMetric) {
	var out bytes.Buffer
	args := []string{"-workload", name, "-seconds", "0", "-trace", strconv.Itoa(trace), "-scale", "tiny"}
	if code := parentMain(args, &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}
