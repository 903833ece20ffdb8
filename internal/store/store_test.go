package store

// Durability tests for the segment log: round trips, rotation, torn-tail
// recovery, and a corruption-rejection table. The bar everywhere is the
// WAL discipline: a crash mid-append costs at most the torn tail; any
// other damage refuses the store loudly rather than serving a possibly
// wrong cell into a rendered table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
)

var testID = Identity{Backend: "test: backend with spaces (and parens)", Seed: 7}

// mkCoord builds a resolvable coordinate (problem 1..17, level 0..2).
func mkCoord(problem, level, tempMilli, n int) eval.Coord {
	return eval.Coord{
		Model: "CodeGen-16B", Variant: "FT",
		Problem: problem, Level: level, TempMilli: tempMilli, N: n,
	}
}

func mkStats(i int) eval.CellStats {
	return eval.CellStats{Samples: 4, Compiled: 3, Passed: i % 3, SumLat: 0.125 * float64(i)}
}

// fill puts n distinct cells and returns their coordinates in put order.
func fill(t *testing.T, s *Store, n int) []eval.Coord {
	t.Helper()
	var coords []eval.Coord
	for i := 0; i < n; i++ {
		c := mkCoord(1+i%17, i%3, 100*(1+i%10), 4)
		if _, dup := s.Get(testID, c); dup {
			continue
		}
		if err := s.Put(testID, c, mkStats(i)); err != nil {
			t.Fatal(err)
		}
		coords = append(coords, c)
	}
	return coords
}

func TestPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coords := fill(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(coords) {
		t.Fatalf("reopened store holds %d cells, wrote %d", r.Len(), len(coords))
	}
	for i, c := range coords {
		st, ok := r.Get(testID, c)
		if !ok {
			t.Fatalf("cell %+v missing after reopen", c)
		}
		if want := mkStats(i); st != want {
			t.Fatalf("cell %+v: %+v after reopen, wrote %+v", c, st, want)
		}
	}
	if _, ok := r.Get(Identity{Backend: testID.Backend, Seed: 8}, coords[0]); ok {
		t.Fatal("a different seed must miss: invalidation is identity-keyed")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.maxSeg = 512 // a few records per segment
	coords := fill(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "cells-*.log"))
	if len(segs) < 3 {
		t.Fatalf("40 records against a 512B segment cap produced %d segment(s)", len(segs))
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(coords) {
		t.Fatalf("reopen across %d segments holds %d cells, want %d", len(segs), r.Len(), len(coords))
	}
	// Appends continue in the final segment, not a fresh one.
	c := mkCoord(17, 2, 999, 4)
	if err := r.Put(testID, c, mkStats(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "cells-*.log"))
	if len(after) != len(segs) {
		t.Fatalf("one small append grew segment count %d -> %d", len(segs), len(after))
	}
}

// lastSegment returns the path of the store directory's final segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "cells-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return segs[len(segs)-1]
}

// buildStore writes n cells into a fresh store dir and returns the dir.
func buildStore(t *testing.T, n int, maxSeg int64) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if maxSeg > 0 {
		s.maxSeg = maxSeg
	}
	fill(t, s, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestTornTailRecovered(t *testing.T) {
	cases := []struct {
		name string
		tear func(data []byte) []byte
	}{
		{"partial final record", func(d []byte) []byte {
			return d[:len(d)-9] // mid-record, newline gone
		}},
		{"final record checksum damaged", func(d []byte) []byte {
			d[len(d)-3]++ // payload byte flipped, newline intact
			return d
		}},
		{"final record lost its newline", func(d []byte) []byte {
			return d[:len(d)-1] // decodes fine, not newline-terminated
		}},
		{"garbage appended after the last record", func(d []byte) []byte {
			return append(d, []byte("s1 deadbeef {tor")...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildStore(t, 12, 0)
			seg := lastSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tc.tear(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("torn tail must recover, got: %v", err)
			}
			defer s.Close()
			if got := s.Len(); got < 10 || got > 12 {
				t.Fatalf("recovered %d cells from a 12-cell store with one torn tail", got)
			}
			// The truncated tail is really gone: a reopen sees a clean store.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("second open after recovery: %v", err)
			}
			r.Close()
		})
	}
}

func TestCorruptionRejected(t *testing.T) {
	cases := []struct {
		name   string
		maxSeg int64
		damage func(t *testing.T, dir string)
	}{
		{"checksum flipped mid-file", 0, func(t *testing.T, dir string) {
			seg := lastSegment(t, dir)
			data, _ := os.ReadFile(seg)
			lines := bytes.SplitAfter(data, []byte("\n"))
			lines[2][len(lines[2])-3]++ // a record with records after it
			os.WriteFile(seg, bytes.Join(lines, nil), 0o644)
		}},
		{"garbage line mid-file", 0, func(t *testing.T, dir string) {
			seg := lastSegment(t, dir)
			data, _ := os.ReadFile(seg)
			lines := bytes.SplitAfter(data, []byte("\n"))
			lines[1] = []byte("not a record at all\n")
			os.WriteFile(seg, bytes.Join(lines, nil), 0o644)
		}},
		{"unknown record version mid-file", 0, func(t *testing.T, dir string) {
			seg := lastSegment(t, dir)
			data, _ := os.ReadFile(seg)
			os.WriteFile(seg, append([]byte("s2"), data[2:]...), 0o644)
		}},
		{"torn tail in a non-final segment", 256, func(t *testing.T, dir string) {
			segs, _ := filepath.Glob(filepath.Join(dir, "cells-*.log"))
			if len(segs) < 2 {
				t.Fatal("rotation produced one segment; the case needs two")
			}
			first := segs[0]
			data, _ := os.ReadFile(first)
			os.WriteFile(first, data[:len(data)-7], 0o644)
		}},
		{"conflicting duplicate cell", 0, func(t *testing.T, dir string) {
			// A validly checksummed record for an existing coordinate with
			// different stats, followed by another record so it is mid-file.
			c := mkCoord(1, 0, 100, 4) // fill's first cell
			conflict, err := encodeRecord(testID, c, eval.CellStats{Samples: 4, Compiled: 4, Passed: 4, SumLat: 9})
			if err != nil {
				t.Fatal(err)
			}
			tail, err := encodeRecord(testID, mkCoord(17, 2, 999, 4), mkStats(0))
			if err != nil {
				t.Fatal(err)
			}
			seg := lastSegment(t, dir)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(conflict)
			f.Write(tail)
			f.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildStore(t, 12, tc.maxSeg)
			tc.damage(t, dir)
			if s, err := Open(dir); err == nil {
				s.Close()
				t.Fatal("corrupted store opened cleanly")
			}
		})
	}
}

func TestPutSemantics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := mkCoord(3, 1, 500, 10)
	st := eval.CellStats{Samples: 10, Compiled: 8, Passed: 5, SumLat: 2.5}
	if err := s.Put(testID, c, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testID, c, st); err != nil {
		t.Fatalf("identical re-put must be a no-op, got: %v", err)
	}
	if s.Added() != 1 {
		t.Fatalf("Added = %d after one new cell and one no-op", s.Added())
	}
	if err := s.Put(testID, c, eval.CellStats{Samples: 10, Compiled: 8, Passed: 6, SumLat: 2.5}); err == nil {
		t.Fatal("conflicting re-put must be rejected")
	}
	// Validation mirrors wire: inconsistent stats and bad coordinates are
	// rejected at the writer.
	if err := s.Put(testID, c, eval.CellStats{Samples: 11}); err == nil {
		t.Fatal("Samples > N must be rejected")
	}
	if err := s.Put(testID, mkCoord(99, 0, 100, 4), st); err == nil {
		t.Fatal("unresolvable problem number must be rejected")
	}
	if err := s.Put(Identity{Seed: 1}, mkCoord(4, 0, 100, 4), eval.CellStats{Samples: 1, SumLat: 0}); err == nil {
		t.Fatal("empty backend tag must be rejected")
	}
}

func TestParseIdentity(t *testing.T) {
	tag := "family: simulated n-gram line-up (60 fine-tuning docs)"
	id, err := ParseIdentity(tag + "@42")
	if err != nil {
		t.Fatal(err)
	}
	if id.Backend != tag || id.Seed != 42 {
		t.Fatalf("parsed %+v", id)
	}
	if id.String() != tag+"@42" {
		t.Fatalf("round trip: %q", id.String())
	}
	bare, err := ParseIdentity("-3")
	if err != nil || bare != (Identity{Seed: -3}) {
		t.Fatalf("bare seed: %+v, %v", bare, err)
	}
	if _, err := ParseIdentity("backend@notanumber"); err == nil {
		t.Fatal("non-integer seed must be rejected")
	}
}

func TestWriteToRoundTrip(t *testing.T) {
	dir := buildStore(t, 25, 0)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var dump bytes.Buffer
	if err := s.writeTo(&dump); err != nil {
		t.Fatal(err)
	}
	// Replaying the dump into a fresh store reproduces the cell set.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, segName(1)), dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != s.Len() {
		t.Fatalf("replayed dump holds %d cells, original %d", r.Len(), s.Len())
	}
	for _, e := range s.Query(Filter{}) {
		if got, ok := r.Get(e.ID, e.Coord); !ok || got != e.Stats {
			t.Fatalf("cell %+v: %+v (present=%v), want %+v", e.Coord, got, ok, e.Stats)
		}
	}
}

func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("family: sweep", "CodeGen-16B", int64(1), 3, 1, 500, 10, 10, 8, 5, 2.5)
	f.Add("b@x", "<a & \"b\\c\">", int64(-9), 17, 2, 100, 1, 1, 1, 1, 0.0)
	f.Add("m", "Jäger \u2028 \x7f\t", int64(0), 1, 0, 0, 25, 0, 0, 0, 0.0)
	f.Add("m", "m\xff", int64(0), 1, 0, 0, 25, 0, 0, 0, 0.0)
	f.Fuzz(func(t *testing.T, backend, model string, seed int64, problem, level, tempMilli, n, samples, compiled, passed int, sumLat float64) {
		id := Identity{Backend: backend, Seed: seed}
		c := eval.Coord{Model: model, Variant: "PT", Problem: problem, Level: level, TempMilli: tempMilli, N: n}
		st := eval.CellStats{Samples: samples, Compiled: compiled, Passed: passed, SumLat: sumLat}
		line, err := encodeRecord(id, c, st)
		if err != nil {
			return // invalid input rejected at the writer: exactly the contract
		}
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatal("encoded record is not newline-terminated")
		}
		gid, gc, gst, err := decodeRecord(bytes.TrimSuffix(line, []byte("\n")), interner{})
		if err != nil {
			t.Fatalf("encoded record does not decode: %v\n%s", err, line)
		}
		if gid != id || gc != c || gst != st {
			t.Fatalf("round trip drift: (%+v %+v %+v) -> (%+v %+v %+v)", id, c, st, gid, gc, gst)
		}
	})
}

// decodeRecordJSON is the reflective decoder the store used before the
// canonical scanner: framing and checksum as decodeRecord, then
// json.Unmarshal of the payload into a recordLine. It accepts every
// spelling of a payload encoding/json reads (any key order, whitespace,
// missing keys), so FuzzDecodeRecord holds decodeRecord to a subset of
// it with identical results.
func decodeRecordJSON(line []byte) (Identity, eval.Coord, eval.CellStats, error) {
	var zid Identity
	var zc eval.Coord
	var zst eval.CellStats
	rest, ok := bytes.CutPrefix(line, []byte(recordPrefix+" "))
	if !ok {
		return zid, zc, zst, fmt.Errorf("store: record does not start with %q", recordPrefix)
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return zid, zc, zst, fmt.Errorf("store: record missing checksum field")
	}
	sum, err := strconv.ParseUint(string(rest[:8]), 16, 32)
	if err != nil {
		return zid, zc, zst, fmt.Errorf("store: bad checksum field: %w", err)
	}
	payload := rest[9:]
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return zid, zc, zst, fmt.Errorf("store: record checksum mismatch")
	}
	var rl recordLine
	if err := json.Unmarshal(payload, &rl); err != nil {
		return zid, zc, zst, fmt.Errorf("store: record payload: %w", err)
	}
	if rl.Backend == "" {
		return zid, zc, zst, fmt.Errorf("store: record has empty backend tag")
	}
	id := Identity{Backend: rl.Backend, Seed: rl.Seed}
	c := eval.Coord{
		Model: rl.Model, Variant: rl.Variant, Problem: rl.Problem,
		Level: rl.Level, TempMilli: rl.TempMilli, N: rl.N,
	}
	if _, err := c.Query(); err != nil {
		return zid, zc, zst, fmt.Errorf("store: %w", err)
	}
	st := eval.CellStats{
		Samples: rl.Samples, Compiled: rl.Compiled, Passed: rl.Passed,
		SumLat: rl.SumLat,
	}
	if err := checkStats(c, st); err != nil {
		return zid, zc, zst, err
	}
	return id, c, st, nil
}

// frame wraps a payload in the record framing with a valid checksum, so
// a test reaches the payload decoder.
func frame(payload string) string {
	return fmt.Sprintf("%s %08x %s", recordPrefix, crc32.ChecksumIEEE([]byte(payload)), payload)
}

// canonicalPayload is a valid payload; nonCanonical lists spellings of
// it that encoding/json may read but encodeRecord never writes, and a
// sum_lat out of float64 range.
const canonicalPayload = `{"backend":"b","seed":5,"model":"CodeGen-16B","variant":"FT","problem":2,"level":1,"temp_milli":300,"n":4,"samples":4,"compiled":3,"passed":1,"sum_lat":0.375}`

var nonCanonical = []struct{ name, payload string }{
	{"leading zero", strings.Replace(canonicalPayload, `"seed":5`, `"seed":05`, 1)},
	{"plus sign", strings.Replace(canonicalPayload, `"seed":5`, `"seed":+5`, 1)},
	{"fraction in an int", strings.Replace(canonicalPayload, `"problem":2`, `"problem":2.0`, 1)},
	{"exponent in an int", strings.Replace(canonicalPayload, `"temp_milli":300`, `"temp_milli":3e2`, 1)},
	{"int overflow", strings.Replace(canonicalPayload, `"seed":5`, `"seed":9223372036854775808`, 1)},
	{"space after colon", strings.Replace(canonicalPayload, `"seed":5`, `"seed": 5`, 1)},
	{"trailing space", canonicalPayload + " "},
	{"reordered keys", strings.Replace(canonicalPayload, `"model":"CodeGen-16B","variant":"FT"`, `"variant":"FT","model":"CodeGen-16B"`, 1)},
	{"missing key", strings.Replace(canonicalPayload, `"level":1,`, ``, 1)},
	{"unknown key", strings.Replace(canonicalPayload, `"n":4,`, `"n":4,"k":1,`, 1)},
	{"key case", strings.Replace(canonicalPayload, `"seed"`, `"Seed"`, 1)},
	{"trailing comma", strings.Replace(canonicalPayload, `0.375}`, `0.375,}`, 1)},
	{"sum_lat 1e400", strings.Replace(canonicalPayload, `0.375`, `1e400`, 1)},
	{"sum_lat 1.", strings.Replace(canonicalPayload, `0.375`, `1.`, 1)},
	{"null string", strings.Replace(canonicalPayload, `"b"`, `null`, 1)},
	{"torn inside a string", canonicalPayload[:len(`{"backend":"b`)]},
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	want := eval.CellStats{Samples: 4, Compiled: 3, Passed: 1, SumLat: 0.375}
	if _, _, st, err := decodeRecord([]byte(frame(canonicalPayload)), interner{}); err != nil || st != want {
		t.Fatalf("canonical payload: %+v, %v", st, err)
	}
	for _, tc := range nonCanonical {
		if _, _, _, err := decodeRecord([]byte(frame(tc.payload)), interner{}); err == nil {
			t.Errorf("%s: decoded %s", tc.name, tc.payload)
		}
	}
}

func FuzzDecodeRecord(f *testing.F) {
	good, _ := encodeRecord(testID, mkCoord(2, 1, 300, 4), mkStats(3))
	f.Add(string(good))
	f.Add(frame(canonicalPayload))
	f.Add(frame(strings.Replace(canonicalPayload, `"b"`, `"\u003c\u00e9\ufffd"`, 1)))
	f.Add(frame(strings.Replace(canonicalPayload, `"b"`, "\"\xff\"", 1)))
	f.Add(frame(strings.Replace(canonicalPayload, `0.375`, `-0.0e-2`, 1)))
	for _, tc := range nonCanonical {
		f.Add(frame(tc.payload))
	}
	f.Add("s1 00000000 {}")
	f.Add("")
	f.Add(strings.Repeat("s1 ", 100))
	f.Fuzz(func(t *testing.T, line string) {
		// Must never panic; errors are the expected outcome for junk.
		id, c, st, err := decodeRecord([]byte(line), interner{})
		if err != nil {
			return
		}
		// Whatever decodes must decode identically through encoding/json...
		jid, jc, jst, jerr := decodeRecordJSON([]byte(line))
		if jerr != nil {
			t.Fatalf("decodeRecord accepts what encoding/json rejects (%v):\n%q", jerr, line)
		}
		if jid != id || jc != c || jst != st {
			t.Fatalf("decoders disagree on %q:\n(%+v %+v %+v)\nvs encoding/json\n(%+v %+v %+v)", line, id, c, st, jid, jc, jst)
		}
		// ...and re-encode decodably (idempotent format).
		if _, rerr := encodeRecord(id, c, st); rerr != nil {
			t.Fatalf("decoded record fails re-encode: %v", rerr)
		}
	})
}

// TestInvalidUTF8ModelRejected: encoding/json writes every invalid
// UTF-8 byte as U+FFFD, so two models that differ only there would share
// one key on reopen and refuse the store as a conflicting duplicate.
func TestInvalidUTF8ModelRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, model := range []string{"m\xff", "m\xfe"} {
		c := mkCoord(1, 0, 100, 4)
		c.Model = model
		if err := s.Put(testID, c, eval.CellStats{Samples: 4, Compiled: i + 1}); err == nil {
			t.Errorf("Put accepted model %q, which is not valid UTF-8", model)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	r.Close()
}

// longID's backend tag makes a record longer than loadSegment's 64 KiB
// read buffer.
var longID = Identity{Backend: strings.Repeat("long backend tag ", 100<<10/17), Seed: 3}

// appendLong puts one long record after fill's cells and, if more > 0,
// more short cells after it; it returns the long record's coordinate.
func appendLong(t *testing.T, dir string, more int) eval.Coord {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mkCoord(9, 1, 900, 4)
	if err := s.Put(longID, c, mkStats(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < more; i++ {
		if err := s.Put(Identity{Backend: testID.Backend, Seed: 100}, mkCoord(1+i, 2, 200, 4), mkStats(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRecordLongerThanReadBuffer(t *testing.T) {
	for _, tc := range []struct {
		name string
		more int  // short records after the long one
		tear bool // cut the long final record short
	}{
		{"mid-segment", 5, false},
		{"valid final record", 0, false},
		{"torn final record", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildStore(t, 12, 0)
			seg := lastSegment(t, dir)
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			c := appendLong(t, dir, tc.more)
			if tc.tear {
				after, _ := os.Stat(seg)
				if after.Size()-before.Size() <= 64<<10 {
					t.Fatalf("long record is %d bytes, not past the read buffer", after.Size()-before.Size())
				}
				if err := os.Truncate(seg, before.Size()+70<<10); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := 12 + tc.more
			if !tc.tear {
				want++
			}
			if s.Len() != want {
				t.Fatalf("reopened store holds %d cells, want %d", s.Len(), want)
			}
			if _, ok := s.Get(longID, c); ok == tc.tear {
				t.Fatalf("long record present = %v", ok)
			}
			if tc.tear {
				if fi, _ := os.Stat(seg); fi.Size() != before.Size() {
					t.Fatalf("torn long record left %d bytes, want the %d before it", fi.Size(), before.Size())
				}
			}
		})
	}
}

func TestOpenOnMissingDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cells")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testID, mkCoord(5, 0, 100, 4), mkStats(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testID, mkCoord(1, 0, 100, 4), mkStats(0)); err == nil {
		t.Fatal("Put after Close must fail")
	}
	if err := s.Err(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Err after Close: %v", err)
	}
}

// TestSyncDurability proves the chunk-boundary contract: cells written
// before a Sync survive a simulated kill (the file is never closed; we
// reopen the directory as a second store and must see the synced cells).
func TestSyncDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mkCoord(7, 1, 700, 4)
	if err := s.Put(testID, c, mkStats(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: the "killed" process never got to clean up. Scan what is
	// on disk (the OS keeps written bytes visible to other readers).
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(testID, c); !ok {
		t.Fatal("synced cell invisible to a post-kill reopen")
	}
	r.Close()
	s.Close()
}

func TestAddedCountsOnlyNewCells(t *testing.T) {
	dir := buildStore(t, 10, 0)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Added() != 0 {
		t.Fatalf("fresh session reports %d added", s.Added())
	}
	// Re-putting resident cells adds nothing; one new cell adds one.
	for _, e := range s.Query(Filter{}) {
		if err := s.Put(e.ID, e.Coord, e.Stats); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testID, mkCoord(17, 2, 999, 4), mkStats(2)); err != nil {
		t.Fatal(err)
	}
	if s.Added() != 1 {
		t.Fatalf("Added = %d, want 1", s.Added())
	}
}

// TestSplit: a plan splits into exactly the cells resident under its
// identity and the rest of the plan, in plan order; another identity's
// cells are never held.
func TestSplit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var coords []eval.Coord
	for i := 0; i < 8; i++ {
		coords = append(coords, mkCoord(8-i, i%3, 100, 4)) // plan order is not canonical order
	}
	plan, err := eval.PlanFromCoords(coords)
	if err != nil {
		t.Fatal(err)
	}
	other := Identity{Backend: testID.Backend, Seed: testID.Seed + 1}
	var wantRest []eval.Coord
	for i, c := range coords {
		switch i % 3 {
		case 0:
			if err := s.Put(testID, c, mkStats(i)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.Put(other, c, mkStats(i)); err != nil {
				t.Fatal(err)
			}
			wantRest = append(wantRest, c)
		default:
			wantRest = append(wantRest, c)
		}
	}

	held, rest, err := s.Split(testID, plan)
	if err != nil {
		t.Fatal(err)
	}
	if held.Len()+rest.Len() != plan.Len() {
		t.Fatalf("split %d cells into %d held + %d rest", plan.Len(), held.Len(), rest.Len())
	}
	for i, c := range coords {
		got, ok := held.Get(c)
		if want := i%3 == 0; ok != want {
			t.Fatalf("cell %d held = %v, want %v", i, ok, want)
		}
		if ok && got != mkStats(i) {
			t.Fatalf("cell %d held %+v, stored %+v", i, got, mkStats(i))
		}
	}
	if got := rest.Coords(); fmt.Sprint(got) != fmt.Sprint(wantRest) {
		t.Fatalf("rest = %v, want %v in plan order", got, wantRest)
	}
}

// putSet builds a result set holding cells.
func putSet(t *testing.T, cells map[eval.Coord]eval.CellStats) *eval.ResultSet {
	t.Helper()
	rs := eval.NewResultSet()
	for c, st := range cells {
		if err := rs.Put(c, st); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// TestPutSet: zero-sample cells never persist, an identical re-put
// counts as resident rather than added, and a conflicting cell fails
// with Put's conflict error.
func TestPutSet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b, zero := mkCoord(1, 0, 100, 4), mkCoord(2, 1, 100, 4), mkCoord(3, 2, 100, 4)
	rs := putSet(t, map[eval.Coord]eval.CellStats{a: mkStats(1), b: mkStats(2), zero: {}})

	added, resident, err := s.PutSet(testID, rs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || resident != 0 {
		t.Fatalf("first PutSet: %d added, %d resident; want 2, 0", added, resident)
	}
	if _, ok := s.Get(testID, zero); ok {
		t.Fatal("zero-sample cell persisted")
	}
	added, resident, err = s.PutSet(testID, rs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || resident != 2 || s.Added() != 2 {
		t.Fatalf("identical re-put: %d added, %d resident, %d appended this session; want 0, 2, 2", added, resident, s.Added())
	}

	conflict := putSet(t, map[eval.Coord]eval.CellStats{b: mkStats(3)})
	_, _, err = s.PutSet(testID, conflict)
	if err == nil || !strings.Contains(err.Error(), "refusing conflicting") {
		t.Fatalf("conflicting PutSet: err = %v, want the conflict error", err)
	}
	if got, _ := s.Get(testID, b); got != mkStats(2) {
		t.Fatalf("conflict overwrote the resident cell: %+v", got)
	}
	if s.Err() != nil {
		t.Fatal("a rejected cell must not poison the store itself")
	}

	// Only the two banked cells survive a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("reopened store holds %d cells, want 2", r.Len())
	}
}
