// Package wire is the serialization layer of distributed sweep
// execution: a versioned, deterministic JSON-lines format for shard
// plans (which cells one worker should evaluate) and shard results (the
// per-cell CellStats it produced), plus the cross-process Merge that
// reassembles a monolithic sweep from its shards.
//
// A file is one header line followed by one line per cell:
//
//	{"kind":"plan","version":1,"backend":"<tag>","seed":1,"shard":0,"shards":4,"cells":702}
//	{"model":"codegen-16B","variant":"FT","problem":3,"level":1,"temp_milli":300,"n":10}
//	...
//
//	{"kind":"results","version":1,"backend":"<tag>","seed":1,"shard":0,"shards":4,"cells":702}
//	{"model":"codegen-16B","variant":"FT","problem":3,"level":1,"temp_milli":300,"n":10,
//	 "samples":10,"compiled":9,"passed":4,"sum_lat":31.25}
//	...
//
// Design points, in the order they matter:
//
//   - Coordinates are wire-stable scalars. Temperature is keyed in
//     thousandths (gen.TempMilli) — the same quantization record/replay
//     use — so a recording, a shard plan, and a shard result can never
//     disagree on float keying.
//   - Encoding is deterministic: result cells are written in canonical
//     coordinate order, plan cells in plan order, and encoding/json emits
//     shortest-round-trip float64, so equal payloads are equal bytes and
//     sum_lat survives the round trip bit-for-bit.
//   - Decode validates. The schema version must match, the header kind
//     must match the reader, the header's cell count must match the body
//     (a file truncated at a line boundary is rejected), every coordinate
//     must resolve to a real (problem, level, variant, n) query, stats
//     must be internally consistent, and a malformed or duplicate line is
//     an error — never a silent drop.
//   - Merge is order-independent and total: shards must agree on
//     (version, backend tag, seed, shard count), indices must cover
//     0..shards-1 exactly once (a missing shard means missing cells), and
//     no cell may appear twice. Each cell arrives whole from exactly one
//     shard, so merging is pure map union — no float addition spans
//     processes, which is what keeps a merged sweep byte-identical to the
//     monolithic run.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/eval"
)

// Version is the schema version written to and required from every file.
const Version = 1

// Meta identifies one shard's place in a distributed sweep: which backend
// configuration produced it (the backend's Describe() tag), the runner
// seed every shard must share, and the shard index/count. Merging shards
// whose metas disagree is refused — their cells would come from different
// sweeps.
type Meta struct {
	Backend string
	Seed    int64
	Shard   int
	Shards  int
}

// header is the first JSONL line of both file kinds. Cells is the exact
// number of cell lines that must follow: JSONL has no framing, so
// without it a file truncated at a line boundary (interrupted copy,
// partial flush on a full disk) would decode cleanly and merge into a
// silently incomplete sweep.
type header struct {
	Kind    string `json:"kind"` // "plan" or "results"
	Version int    `json:"version"`
	Backend string `json:"backend"`
	Seed    int64  `json:"seed"`
	Shard   int    `json:"shard"`
	Shards  int    `json:"shards"`
	Cells   int    `json:"cells"`
}

// coordLine is one planned cell.
type coordLine struct {
	Model     string `json:"model"`
	Variant   string `json:"variant"`
	Problem   int    `json:"problem"`
	Level     int    `json:"level"`
	TempMilli int    `json:"temp_milli"`
	N         int    `json:"n"`
}

// cellLine is one evaluated cell: coordinate plus stats.
type cellLine struct {
	coordLine
	Samples  int     `json:"samples"`
	Compiled int     `json:"compiled"`
	Passed   int     `json:"passed"`
	SumLat   float64 `json:"sum_lat"`
}

func toCoordLine(c eval.Coord) coordLine {
	return coordLine{
		Model: c.Model, Variant: c.Variant, Problem: c.Problem,
		Level: c.Level, TempMilli: c.TempMilli, N: c.N,
	}
}

func (l coordLine) coord() eval.Coord {
	return eval.Coord{
		Model: l.Model, Variant: l.Variant, Problem: l.Problem,
		Level: l.Level, TempMilli: l.TempMilli, N: l.N,
	}
}

func checkMeta(m Meta) error {
	if m.Backend == "" {
		return fmt.Errorf("wire: empty backend tag")
	}
	if m.Shards <= 0 || m.Shard < 0 || m.Shard >= m.Shards {
		return fmt.Errorf("wire: shard %d of %d out of range", m.Shard, m.Shards)
	}
	return nil
}

func writeHeader(w *bufio.Writer, kind string, m Meta, cells int) error {
	if err := checkMeta(m); err != nil {
		return err
	}
	return writeLine(w, header{
		Kind: kind, Version: Version,
		Backend: m.Backend, Seed: m.Seed, Shard: m.Shard, Shards: m.Shards,
		Cells: cells,
	})
}

func writeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// readHeader decodes and validates the first line of a file against the
// expected kind and this package's schema version, returning the meta
// and the declared cell count the body must supply.
func readHeader(sc *bufio.Scanner, kind string) (Meta, int, error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Meta{}, 0, err
		}
		return Meta{}, 0, fmt.Errorf("wire: empty input, want a %s header", kind)
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Meta{}, 0, fmt.Errorf("wire: header: %w", err)
	}
	if h.Version != Version {
		return Meta{}, 0, fmt.Errorf("wire: schema version %d, this build reads %d", h.Version, Version)
	}
	if h.Kind != kind {
		return Meta{}, 0, fmt.Errorf("wire: file kind %q, want %q", h.Kind, kind)
	}
	if h.Cells < 0 {
		return Meta{}, 0, fmt.Errorf("wire: negative cell count %d", h.Cells)
	}
	m := Meta{Backend: h.Backend, Seed: h.Seed, Shard: h.Shard, Shards: h.Shards}
	if err := checkMeta(m); err != nil {
		return Meta{}, 0, err
	}
	return m, h.Cells, nil
}

func scanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	return sc
}

// WritePlan serializes a shard plan: the header followed by one line per
// planned cell, in plan order. Cells are validated symmetrically with
// ReadPlan — unresolvable or duplicate coordinates fail at the writer, on
// the coordinator, not later on the worker.
func WritePlan(w io.Writer, m Meta, coords []eval.Coord) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, "plan", m, len(coords)); err != nil {
		return err
	}
	seen := make(map[eval.Coord]bool, len(coords))
	for _, c := range coords {
		if _, err := c.Query(); err != nil {
			return fmt.Errorf("wire: plan: %w", err)
		}
		if seen[c] {
			return fmt.Errorf("wire: plan: duplicate cell %+v", c)
		}
		seen[c] = true
		if err := writeLine(bw, toCoordLine(c)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPlan decodes and validates a shard plan: every coordinate must
// resolve to an executable query, and a cell may be planned only once.
func ReadPlan(r io.Reader) (Meta, []eval.Coord, error) {
	sc := scanner(r)
	m, wantCells, err := readHeader(sc, "plan")
	if err != nil {
		return Meta{}, nil, err
	}
	var coords []eval.Coord
	seen := map[eval.Coord]bool{}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var cl coordLine
		if err := json.Unmarshal(sc.Bytes(), &cl); err != nil {
			return Meta{}, nil, fmt.Errorf("wire: plan line %d: %w", line, err)
		}
		c := cl.coord()
		if _, err := c.Query(); err != nil {
			return Meta{}, nil, fmt.Errorf("wire: plan line %d: %w", line, err)
		}
		if seen[c] {
			return Meta{}, nil, fmt.Errorf("wire: plan line %d: duplicate cell %+v", line, c)
		}
		seen[c] = true
		coords = append(coords, c)
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, err
	}
	if len(coords) != wantCells {
		return Meta{}, nil, fmt.Errorf("wire: plan declares %d cells, file holds %d (truncated?)", wantCells, len(coords))
	}
	return m, coords, nil
}

// WriteResults serializes one shard's evaluated cells: the header
// followed by one line per cell in canonical coordinate order, so equal
// result sets are equal bytes regardless of evaluation order.
func WriteResults(w io.Writer, m Meta, rs *eval.ResultSet) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, "results", m, rs.Len()); err != nil {
		return err
	}
	for _, c := range rs.Coords() {
		st, _ := rs.Get(c)
		if err := eval.CheckCell(c, st); err != nil {
			return fmt.Errorf("wire: results: %w", err)
		}
		if err := writeLine(bw, cellLine{
			coordLine: toCoordLine(c),
			Samples:   st.Samples, Compiled: st.Compiled, Passed: st.Passed,
			SumLat: st.SumLat,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Shard is one decoded shard-result file.
type Shard struct {
	Meta
	Set *eval.ResultSet
}

// ReadResults decodes and validates one shard-result file: schema
// version, header kind, coordinate resolvability, per-cell stat
// consistency, and cell uniqueness.
func ReadResults(r io.Reader) (Shard, error) {
	sc := scanner(r)
	m, wantCells, err := readHeader(sc, "results")
	if err != nil {
		return Shard{}, err
	}
	set := eval.NewResultSet()
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var cl cellLine
		if err := json.Unmarshal(sc.Bytes(), &cl); err != nil {
			return Shard{}, fmt.Errorf("wire: results line %d: %w", line, err)
		}
		c := cl.coord()
		st := eval.CellStats{
			Samples: cl.Samples, Compiled: cl.Compiled, Passed: cl.Passed,
			SumLat: cl.SumLat,
		}
		if err := eval.CheckCell(c, st); err != nil {
			return Shard{}, fmt.Errorf("wire: results line %d: %w", line, err)
		}
		if err := set.Put(c, st); err != nil {
			return Shard{}, fmt.Errorf("wire: results line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Shard{}, err
	}
	if set.Len() != wantCells {
		return Shard{}, fmt.Errorf("wire: results declare %d cells, file holds %d (truncated?)", wantCells, set.Len())
	}
	return Shard{Meta: m, Set: set}, nil
}

// Merge reassembles a sweep from its shards, in any order. All shards
// must carry the same backend tag, seed, and shard count; the indices
// must cover 0..shards-1 exactly once, so both an overlapping and a
// missing shard are refused; and no cell may appear in two shards. The
// returned Meta is the common sweep identity with Shard = -1 (the merged
// whole is no single shard).
func Merge(shards []Shard) (*eval.ResultSet, Meta, error) {
	rs, m, missing, err := MergePartial(shards)
	if err != nil {
		return nil, Meta{}, err
	}
	if len(missing) > 0 {
		return nil, Meta{}, fmt.Errorf("wire: merge: shard %d of %d missing (its cells are unserved)", missing[0], m.Shards)
	}
	return rs, m, nil
}

// MergePartial is Merge for a degraded sweep: shard indices absent from
// the input are reported (ascending) instead of refused, so a coordinator
// that exhausted its retries can still assemble every cell that did
// complete. Everything else — identity agreement, duplicate shards,
// overlapping cells — stays an error: a partial merge must be an exact
// subset of the full one, never a differently wrong one.
func MergePartial(shards []Shard) (*eval.ResultSet, Meta, []int, error) {
	if len(shards) == 0 {
		return nil, Meta{}, nil, fmt.Errorf("wire: merge of zero shards")
	}
	// File-decoded shards arrive pre-validated via readHeader, but a
	// programmatically built Meta must not panic the seen allocation or
	// indexing below — validate every shard before trusting any count.
	for _, s := range shards {
		if err := checkMeta(s.Meta); err != nil {
			return nil, Meta{}, nil, fmt.Errorf("wire: merge: %w", err)
		}
	}
	want := shards[0].Meta
	seen := make([]bool, want.Shards)
	merged := eval.NewResultSet()

	// Deterministic merge order (by shard index) costs nothing and makes
	// error messages stable; the result is a map union either way.
	ordered := append([]Shard(nil), shards...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Shard < ordered[j].Shard })

	for _, s := range ordered {
		if s.Backend != want.Backend || s.Seed != want.Seed || s.Shards != want.Shards {
			return nil, Meta{}, nil, fmt.Errorf(
				"wire: merge: shard %d identity (backend %q, seed %d, shards %d) disagrees with (backend %q, seed %d, shards %d)",
				s.Shard, s.Backend, s.Seed, s.Shards, want.Backend, want.Seed, want.Shards)
		}
		if seen[s.Shard] {
			return nil, Meta{}, nil, fmt.Errorf("wire: merge: shard %d of %d supplied twice", s.Shard, s.Shards)
		}
		seen[s.Shard] = true
		if err := merged.Merge(s.Set); err != nil {
			return nil, Meta{}, nil, fmt.Errorf("wire: merge: shard %d: %w", s.Shard, err)
		}
	}
	var missing []int
	for i, ok := range seen {
		if !ok {
			missing = append(missing, i)
		}
	}
	return merged, Meta{Backend: want.Backend, Seed: want.Seed, Shard: -1, Shards: want.Shards}, missing, nil
}
