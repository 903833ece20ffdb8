package main

import (
	"slices"
	"testing"
)

// TestBenchOrder pins the baseline/candidate order: by the date and
// same-day suffix in the name, never by listing order or mtime.
func TestBenchOrder(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		want []string
	}{
		{
			name: "suffix after its unsuffixed day",
			in:   []string{"BENCH_20260808.2.json", "BENCH_20260808.json"},
			want: []string{"BENCH_20260808.json", "BENCH_20260808.2.json"},
		},
		{
			name: "next day after every same-day suffix",
			in:   []string{"BENCH_20260809.json", "BENCH_20260808.2.json", "BENCH_20260808.json"},
			want: []string{"BENCH_20260808.json", "BENCH_20260808.2.json", "BENCH_20260809.json"},
		},
		{
			name: "numeric, not lexical, suffix order",
			in:   []string{"BENCH_20260808.10.json", "BENCH_20260808.9.json", "BENCH_20260808.2.json"},
			want: []string{"BENCH_20260808.2.json", "BENCH_20260808.9.json", "BENCH_20260808.10.json"},
		},
		{
			name: "dates across months and years",
			in:   []string{"BENCH_20270101.json", "BENCH_20260728.2.json", "BENCH_20261231.json", "BENCH_20260728.json"},
			want: []string{"BENCH_20260728.json", "BENCH_20260728.2.json", "BENCH_20261231.json", "BENCH_20270101.json"},
		},
		{
			name: "names make bench never writes are dropped",
			in:   []string{"BENCH_latest.json", "BENCH_20260808.json", "BENCH_2026.json", "BENCH_20260808.x.json"},
			want: []string{"BENCH_20260808.json"},
		},
		{
			name: "directories do not affect the order",
			in:   []string{"b/BENCH_20260808.json", "a/BENCH_20260809.json"},
			want: []string{"b/BENCH_20260808.json", "a/BENCH_20260809.json"},
		},
	}
	for _, c := range cases {
		if got := benchOrder(c.in); !slices.Equal(got, c.want) {
			t.Errorf("%s: benchOrder(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}
