package goanalysis

import "sort"

// All returns the full analyzer suite with default configuration, sorted
// by name — the deterministic feed for `vgen-check -list` (mirroring
// `vgen-eval -backend list`).
func All() []*Analyzer {
	as := []*Analyzer{
		Maporder(),
		Nondet(DefaultNondetSeams),
		Durables(),
		Ctxflow(),
		Floatmerge(),
		Reach(),
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}
