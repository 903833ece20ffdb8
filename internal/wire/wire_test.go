package wire

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/problems"
)

func testMeta(shard, shards int) Meta {
	return Meta{Backend: "test: backend tag", Seed: 42, Shard: shard, Shards: shards}
}

// testCoords builds valid cell addresses over the real problem set.
func testCoords(n int) []eval.Coord {
	ps := problems.All()
	var out []eval.Coord
	temps := []int{100, 300, 500, 700, 1000}
	for i := 0; len(out) < n; i++ {
		out = append(out, eval.Coord{
			Model:     []string{"codegen-16B", "megatron-355M"}[i%2],
			Variant:   []string{gen.VariantPT, gen.VariantFT}[(i/2)%2],
			Problem:   ps[i%len(ps)].Number,
			Level:     i % 3,
			TempMilli: temps[i%len(temps)],
			N:         1 + i%25,
		})
	}
	return out
}

func testSet(t *testing.T, coords []eval.Coord) *eval.ResultSet {
	t.Helper()
	rs := eval.NewResultSet()
	for i, c := range coords {
		samples := c.N - i%2 // sometimes fewer than n (replay gaps)
		st := eval.CellStats{
			Samples:  samples,
			Compiled: samples * 3 / 4,
			Passed:   samples / 2,
			SumLat:   0.25 * float64(i*samples), // exactly representable
		}
		if err := rs.Put(c, st); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func TestPlanRoundTripDeterministic(t *testing.T) {
	coords := testCoords(9)
	m := testMeta(2, 4)
	var a, b bytes.Buffer
	if err := WritePlan(&a, m, coords); err != nil {
		t.Fatal(err)
	}
	if err := WritePlan(&b, m, coords); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("plan encoding is not deterministic")
	}
	gm, gc, err := ReadPlan(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gm != m {
		t.Fatalf("meta round trip: got %+v want %+v", gm, m)
	}
	if len(gc) != len(coords) {
		t.Fatalf("got %d coords, want %d", len(gc), len(coords))
	}
	for i := range gc {
		if gc[i] != coords[i] {
			t.Fatalf("coord %d: got %+v want %+v", i, gc[i], coords[i])
		}
	}
	var c bytes.Buffer
	if err := WritePlan(&c, gm, gc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("Encode(Decode(x)) != x for plan")
	}
}

func TestResultsRoundTripCanonicalOrder(t *testing.T) {
	coords := testCoords(12)
	m := testMeta(0, 1)
	forward := testSet(t, coords)
	rev := make([]eval.Coord, len(coords))
	for i, c := range coords {
		rev[len(coords)-1-i] = c
	}
	backward := eval.NewResultSet()
	for _, c := range rev {
		st, _ := forward.Get(c)
		if err := backward.Put(c, st); err != nil {
			t.Fatal(err)
		}
	}

	var a, b bytes.Buffer
	if err := WriteResults(&a, m, forward); err != nil {
		t.Fatal(err)
	}
	if err := WriteResults(&b, m, backward); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("result encoding depends on insertion order")
	}

	sh, err := ReadResults(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Meta != m {
		t.Fatalf("meta round trip: got %+v want %+v", sh.Meta, m)
	}
	if sh.Set.Len() != forward.Len() {
		t.Fatalf("got %d cells, want %d", sh.Set.Len(), forward.Len())
	}
	var c bytes.Buffer
	if err := WriteResults(&c, sh.Meta, sh.Set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("Encode(Decode(x)) != x for results")
	}
}

// encodeShards splits one result set into n shard files.
func encodeShards(t *testing.T, rs *eval.ResultSet, n int) []Shard {
	t.Helper()
	coords := rs.Coords()
	out := make([]Shard, n)
	for i := 0; i < n; i++ {
		set := eval.NewResultSet()
		for j := i; j < len(coords); j += n {
			st, _ := rs.Get(coords[j])
			if err := set.Put(coords[j], st); err != nil {
				t.Fatal(err)
			}
		}
		m := testMeta(i, n)
		var buf bytes.Buffer
		if err := WriteResults(&buf, m, set); err != nil {
			t.Fatal(err)
		}
		sh, err := ReadResults(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sh
	}
	return out
}

func TestMergeOrderIndependent(t *testing.T) {
	full := testSet(t, testCoords(13))
	shards := encodeShards(t, full, 4)

	shuffled := []Shard{shards[2], shards[0], shards[3], shards[1]}
	a, am, missing, err := MergePartial(shards)
	if err != nil || len(missing) > 0 {
		t.Fatal(err, missing)
	}
	b, bm, missing, err := MergePartial(shuffled)
	if err != nil || len(missing) > 0 {
		t.Fatal(err, missing)
	}
	if am != bm {
		t.Fatalf("merge meta differs: %+v vs %+v", am, bm)
	}
	if am.Shard != -1 || am.Shards != 4 {
		t.Fatalf("merged meta %+v, want Shard=-1 Shards=4", am)
	}
	if a.Len() != full.Len() || b.Len() != full.Len() {
		t.Fatalf("merged %d/%d cells, want %d", a.Len(), b.Len(), full.Len())
	}
	for _, c := range full.Coords() {
		want, _ := full.Get(c)
		ga, ok := a.Get(c)
		if !ok || ga != want {
			t.Fatalf("cell %+v: merged %+v want %+v", c, ga, want)
		}
		gb, ok := b.Get(c)
		if !ok || gb != want {
			t.Fatalf("cell %+v: shuffled-merge %+v want %+v", c, gb, want)
		}
	}
}

func TestMergeRejections(t *testing.T) {
	full := testSet(t, testCoords(8))
	shards := encodeShards(t, full, 3)

	if _, _, _, err := MergePartial(nil); err == nil {
		t.Error("merge of zero shards should fail")
	}
	if _, _, missing, err := MergePartial(shards[:2]); err != nil || !slices.Equal(missing, []int{2}) {
		t.Errorf("merge with a missing shard: missing %v, err %v; want [2] reported, no error", missing, err)
	}
	if _, _, _, err := MergePartial([]Shard{shards[0], shards[1], shards[1]}); err == nil {
		t.Error("merge with a duplicate shard index should fail")
	}

	other := shards[2]
	other.Seed++
	if _, _, _, err := MergePartial([]Shard{shards[0], shards[1], other}); err == nil {
		t.Error("merge across seeds should fail")
	}
	other = shards[2]
	other.Backend = "some other backend"
	if _, _, _, err := MergePartial([]Shard{shards[0], shards[1], other}); err == nil {
		t.Error("merge across backend tags should fail")
	}

	// Overlap: re-index shard 0's cells as shard 2.
	overlap := Shard{Meta: testMeta(2, 3), Set: shards[0].Set}
	if _, _, _, err := MergePartial([]Shard{shards[0], shards[1], overlap}); err == nil {
		t.Error("merge with overlapping cells should fail")
	}

	// A programmatically built Meta never went through decode validation:
	// an out-of-range index must error, not panic the coverage bookkeeping.
	rogue := []Shard{
		{Meta: Meta{Backend: "b", Seed: 1, Shard: 5, Shards: 4}, Set: eval.NewResultSet()},
		{Meta: Meta{Backend: "b", Seed: 1, Shard: 6, Shards: 4}, Set: eval.NewResultSet()},
	}
	if _, _, _, err := MergePartial(rogue); err == nil {
		t.Error("merge with out-of-range shard indices should fail")
	}
	negative := []Shard{
		{Meta: Meta{Backend: "b", Seed: 1, Shard: 0, Shards: -1}, Set: eval.NewResultSet()},
	}
	if _, _, _, err := MergePartial(negative); err == nil {
		t.Error("merge with a negative shard count should fail, not panic")
	}
}

func TestDecodeRejections(t *testing.T) {
	coords := testCoords(3)
	m := testMeta(0, 2)
	var buf bytes.Buffer
	if err := WriteResults(&buf, m, testSet(t, coords)); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	corrupt := func(name, text string) {
		t.Helper()
		if _, err := ReadResults(strings.NewReader(text)); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
	corrupt("empty input", "")
	corrupt("plan header on results reader", strings.Replace(good, `"kind":"results"`, `"kind":"plan"`, 1))
	corrupt("future schema version", strings.Replace(good, `"version":1`, `"version":99`, 1))
	corrupt("empty backend tag", strings.Replace(good, `"backend":"test: backend tag"`, `"backend":""`, 1))
	corrupt("shard out of range", strings.Replace(good, `"shard":0,"shards":2`, `"shard":5,"shards":2`, 1))
	corrupt("truncated JSON line", good+`{"model":"x"`)
	corrupt("unknown problem number", lines[0]+"\n"+
		regexp.MustCompile(`"problem":\d+`).ReplaceAllString(lines[1], `"problem":9999`)+"\n")
	corrupt("compiled > samples", lines[0]+"\n"+strings.Replace(lines[1], `"compiled":`, `"compiled":99999990`, 1)+"\n")
	corrupt("passed > compiled", lines[0]+"\n"+
		regexp.MustCompile(`"compiled":\d+,"passed":\d+`).ReplaceAllString(lines[1], `"compiled":0,"passed":1`)+"\n")
	corrupt("duplicate cell", good+lines[1]+"\n")
	corrupt("truncated at a line boundary", lines[0]+"\n"+lines[1]+"\n") // header declares 3 cells

	if _, _, err := ReadPlan(strings.NewReader(good)); err == nil {
		t.Error("results header on plan reader should fail")
	}
}

// TestDecodeRejectionErrors pins the decoder's diagnostics for the
// failure modes a crashed or interrupted worker actually produces —
// mid-line truncation, a lost header, duplicated cell lines — down to
// the error text. The coordinator retries on these errors; a vague or
// wrong message is what a 3 a.m. operator would otherwise debug.
func TestDecodeRejectionErrors(t *testing.T) {
	coords := testCoords(3)
	var buf bytes.Buffer
	if err := WriteResults(&buf, testMeta(0, 2), testSet(t, coords)); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.SplitAfter(strings.TrimSuffix(good, "\n"), "\n") // keep newlines
	last := lines[len(lines)-1]

	cases := []struct {
		name    string
		input   string
		wantErr string
	}{
		{
			// a write killed mid-line: the tail is not valid JSON
			name:    "mid-line truncation",
			input:   strings.TrimSuffix(good, "\n")[:len(good)-len(last)/2],
			wantErr: "unexpected end of JSON input",
		},
		{
			// a write killed between lines: valid JSONL, wrong cell count
			name:    "truncation at a line boundary",
			input:   strings.Join(lines[:len(lines)-1], ""),
			wantErr: "declare 3 cells, file holds 2 (truncated?)",
		},
		{
			// concatenation bug or seek-to-wrong-offset: body without
			// header; the first cell line carries no version field, so the
			// version gate trips before the kind gate
			name:    "missing header",
			input:   strings.Join(lines[1:], ""),
			wantErr: "schema version 0, this build reads 1",
		},
		{
			name:    "empty file",
			input:   "",
			wantErr: "empty input, want a results header",
		},
		{
			// duplicated cell line (e.g. a retried append instead of a
			// rewrite): must name the cell, not just fail
			name:    "duplicate cell line",
			input:   good + last,
			wantErr: "duplicate result cell",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadResults(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestMergePartial exercises the degraded-sweep merge: missing shards are
// reported, not refused; everything else stays strict.
func TestMergePartial(t *testing.T) {
	coords := testCoords(8)
	shard := func(i, n int, cs []eval.Coord) Shard {
		return Shard{Meta: testMeta(i, n), Set: testSet(t, cs)}
	}

	rs, m, missing, err := MergePartial([]Shard{shard(0, 4, coords[:3]), shard(2, 4, coords[3:6])})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3}; len(missing) != 2 || missing[0] != want[0] || missing[1] != want[1] {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	if rs.Len() != 6 || m.Shards != 4 || m.Shard != -1 {
		t.Fatalf("merged %d cells, meta %+v", rs.Len(), m)
	}

	// Complete input: no missing shards.
	_, _, missing, err = MergePartial([]Shard{shard(0, 2, coords[:3]), shard(1, 2, coords[3:6])})
	if err != nil || len(missing) != 0 {
		t.Fatalf("complete merge: missing %v, err %v", missing, err)
	}

	// Strictness survives: identity disagreement, duplicate shard index,
	// overlapping cells, zero shards.
	other := shard(1, 4, coords[3:6])
	other.Seed = 7
	if _, _, _, err := MergePartial([]Shard{shard(0, 4, coords[:3]), other}); err == nil {
		t.Error("identity disagreement accepted")
	}
	if _, _, _, err := MergePartial([]Shard{shard(0, 4, coords[:3]), shard(0, 4, coords[3:6])}); err == nil {
		t.Error("duplicate shard index accepted")
	}
	if _, _, _, err := MergePartial([]Shard{shard(0, 4, coords[:3]), shard(1, 4, coords[:3])}); err == nil {
		t.Error("overlapping cells accepted")
	}
	if _, _, _, err := MergePartial(nil); err == nil {
		t.Error("zero shards accepted")
	}
}

// FuzzResultsRoundTrip asserts decode never panics on arbitrary input,
// and that accepted input reaches a canonical fixed point: one
// decode+encode canonicalizes, after which Encode(Decode(x)) == x.
func FuzzResultsRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteResults(&seed, testMeta(1, 4), eval.NewResultSet()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	var full bytes.Buffer
	rs := eval.NewResultSet()
	for i, c := range testCoords(6) {
		rs.Put(c, eval.CellStats{Samples: c.N, Compiled: c.N, Passed: i % 2, SumLat: 1.5 * float64(i)})
	}
	if err := WriteResults(&full, testMeta(0, 1), rs); err != nil {
		f.Fatal(err)
	}
	f.Add(full.String())
	f.Add("")
	f.Add("{}")
	f.Add(`{"kind":"results","version":1,"backend":"b","seed":0,"shard":0,"shards":1}` + "\n" + `{"model":"m"}`)

	f.Fuzz(func(t *testing.T, data string) {
		sh, err := ReadResults(strings.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it never panics
		}
		var once bytes.Buffer
		if err := WriteResults(&once, sh.Meta, sh.Set); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		sh2, err := ReadResults(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteResults(&twice, sh2.Meta, sh2.Set); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Encode(Decode(x)) != x on canonical encoding")
		}
	})
}

func TestWritePlanRejectsDuplicates(t *testing.T) {
	c := testCoords(1)
	var buf bytes.Buffer
	if err := WritePlan(&buf, testMeta(0, 1), []eval.Coord{c[0], c[0]}); err == nil {
		t.Fatal("WritePlan with a duplicate cell should fail at the writer")
	}
}

// TestWriteResultsRejectsUnresolvableCell holds the results writer to
// the rule its reader applies (eval.CheckCell): a coordinate that names
// no problem is refused at the writer, as WritePlan refuses it, instead
// of producing a file ReadResults would reject.
func TestWriteResultsRejectsUnresolvableCell(t *testing.T) {
	c := testCoords(1)[0]
	c.Problem = 999
	rs := eval.NewResultSet()
	if err := rs.Put(c, eval.CellStats{Samples: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := WriteResults(&buf, testMeta(0, 1), rs)
	if err == nil {
		t.Fatal("WriteResults with an unresolvable coordinate should fail at the writer")
	}
	if !strings.Contains(err.Error(), "no problem 999") {
		t.Fatalf("error %q does not name the unresolvable problem", err)
	}
}
