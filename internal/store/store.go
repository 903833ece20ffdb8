// Package store is the persistent result store: a crash-safe,
// append-only on-disk cache of evaluated cells, keyed by the full sweep
// identity — the backend's Describe() tag plus the runner seed
// (Identity) and the wire-stable cell address (eval.Coord) — holding
// eval.CellStats. A warm sweep becomes disk reads instead of
// generate+compile+simulate passes; an interrupted sweep resumes from
// the last durable cell.
//
// On-disk format: a directory of segment files (cells-000001.log, ...),
// each a sequence of newline-terminated records
//
//	s1 <crc32-hex8> {"backend":...,"seed":...,"model":...,...,"sum_lat":...}
//
// where the checksum covers the JSON payload and the payload reuses the
// wire package's field names. The store is a write-ahead log with no
// compaction: cells are immutable facts (a coordinate under one identity
// has exactly one value — anything else is nondeterminism and is
// rejected), so append-only is the whole story and segments rotate at a
// size threshold purely to bound single-file loss surfaces.
//
// Crash discipline, in the order it matters:
//
//   - Appends are buffered; Sync flushes and fsyncs the active segment.
//     The caching layer's plan path banks and syncs misses in plan-order
//     groups of 32 behind the workers, so a killed sweep loses at most
//     the cells not yet in a synced group. The final segment is opened
//     for append only by the first append: a store that is only read
//     writes nothing.
//   - Open rebuilds the in-memory index by scanning every segment. A
//     torn final record of the final segment — the unique signature of a
//     crash mid-append — is truncated away and the store continues from
//     the last durable cell. Damage anywhere else (bad checksum or
//     garbage mid-file, a torn tail in a non-final segment, conflicting
//     duplicate cells) is corruption and rejects the store loudly:
//     serving a silently wrong cell into a rendered table is the one
//     unacceptable failure mode.
//   - Invalidation is identity-keyed, never manual: a corpus, backend,
//     or seed change alters the identity under which cells are looked
//     up, so stale cells are simply never hit (and remain queryable as
//     sweep history via Query/Diff).
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/eval"
)

// Identity is the sweep half of a cell's key: which backend
// configuration produced the cell (the backend's Describe() tag — the
// unwrapped tag, matching wire.Meta) and under which runner seed. Two
// sweeps that differ in either share nothing.
type Identity struct {
	Backend string
	Seed    int64
}

// String renders the identity in the CLI's "backend@seed" syntax.
func (id Identity) String() string { return fmt.Sprintf("%s@%d", id.Backend, id.Seed) }

// ParseIdentity parses "backend@seed" (splitting at the last '@', since
// backend tags contain spaces and colons but never '@'). A bare seed is
// accepted with an empty backend — the CLI fills in the store's sole
// backend tag when it is unambiguous.
func ParseIdentity(s string) (Identity, error) {
	i := strings.LastIndex(s, "@")
	seedStr := s
	backend := ""
	if i >= 0 {
		backend, seedStr = s[:i], s[i+1:]
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return Identity{}, fmt.Errorf("store: identity %q: seed %q is not an integer", s, seedStr)
	}
	return Identity{Backend: backend, Seed: seed}, nil
}

// recordPrefix versions the record framing; bump it if the line format
// (not the JSON payload — that has its own field names) ever changes.
const recordPrefix = "s1"

// maxSegmentBytes is the default segment rotation threshold. Rotation
// bounds how much one file-level disaster can take down; it has no
// semantic meaning.
const maxSegmentBytes = 8 << 20

// recordLine is the JSON payload of one record: identity + coordinate +
// stats, with the wire package's field names so the two serializations
// never drift apart in review. decodeRecord reads exactly the bytes
// json.Marshal writes for it, keys in this field order: a field change
// here is a format change there.
type recordLine struct {
	Backend   string  `json:"backend"`
	Seed      int64   `json:"seed"`
	Model     string  `json:"model"`
	Variant   string  `json:"variant"`
	Problem   int     `json:"problem"`
	Level     int     `json:"level"`
	TempMilli int     `json:"temp_milli"`
	N         int     `json:"n"`
	Samples   int     `json:"samples"`
	Compiled  int     `json:"compiled"`
	Passed    int     `json:"passed"`
	SumLat    float64 `json:"sum_lat"`
}

// encodeRecord renders one full record line, checksum and newline
// included.
func encodeRecord(id Identity, c eval.Coord, st eval.CellStats) ([]byte, error) {
	if id.Backend == "" {
		return nil, fmt.Errorf("store: empty backend tag in identity")
	}
	// JSON transport replaces invalid UTF-8 with U+FFFD, so a string that
	// is not valid UTF-8 would silently decode to a different key.
	for _, f := range [...]struct{ name, s string }{
		{"backend tag", id.Backend}, {"model", c.Model}, {"variant", c.Variant},
	} {
		if !utf8.ValidString(f.s) {
			return nil, fmt.Errorf("store: %s %q is not valid UTF-8", f.name, f.s)
		}
	}
	if err := eval.CheckCell(c, st); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	payload, err := json.Marshal(recordLine{
		Backend: id.Backend, Seed: id.Seed,
		Model: c.Model, Variant: c.Variant, Problem: c.Problem,
		Level: c.Level, TempMilli: c.TempMilli, N: c.N,
		Samples: st.Samples, Compiled: st.Compiled, Passed: st.Passed,
		SumLat: st.SumLat,
	})
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(recordPrefix)+1+8+1+len(payload)+1)
	line = append(line, recordPrefix...)
	line = append(line, ' ')
	line = fmt.Appendf(line, "%08x", crc32.ChecksumIEEE(payload))
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses and validates one record line (without its
// trailing newline). A record is exactly what encodeRecord writes: the
// framing, then the payload json.Marshal makes of a recordLine — twelve
// keys in field order, no whitespace. Anything else is an error, as is
// every other failure mode — checksum, coordinate resolvability, stat
// consistency; the caller decides whether the position makes it a torn
// tail or corruption. The backend, model and variant strings come from
// strs, so one Open holds each distinct string once, and a name the
// previous record also had is read with one compare.
func decodeRecord(line []byte, strs *interner) (Identity, eval.Coord, eval.CellStats, error) {
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
	sum, ok := parseHex8(rest[:8])
	if !ok {
		return zid, zc, zst, fmt.Errorf("store: bad checksum field %q", rest[:8])
	}
	payload := rest[9:]
	if crc32.ChecksumIEEE(payload) != sum {
		return zid, zc, zst, fmt.Errorf("store: record checksum mismatch")
	}
	p := payloadScanner{rest: payload, strs: strs}
	backend, seed := p.str(`{"backend":`, backendField), p.num(`,"seed":`, 64)
	model, variant := p.str(`,"model":`, modelField), p.str(`,"variant":`, variantField)
	c := eval.Coord{
		Problem: p.int(`,"problem":`), Level: p.int(`,"level":`),
		TempMilli: p.int(`,"temp_milli":`), N: p.int(`,"n":`),
	}
	st := eval.CellStats{
		Samples: p.int(`,"samples":`), Compiled: p.int(`,"compiled":`),
		Passed: p.int(`,"passed":`), SumLat: p.float(`,"sum_lat":`),
	}
	p.lit("}")
	if p.err == nil && len(p.rest) > 0 {
		p.err = errors.New("trailing bytes after the payload")
	}
	if p.err != nil {
		return zid, zc, zst, fmt.Errorf("store: record payload: %w", p.err)
	}
	id := Identity{Backend: strs.names[backend].s, Seed: seed}
	c.Model, c.Variant = strs.names[model].s, strs.names[variant].s
	if id.Backend == "" {
		return zid, zc, zst, fmt.Errorf("store: record has empty backend tag")
	}
	if err := eval.CheckCell(c, st); err != nil {
		return zid, zc, zst, fmt.Errorf("store: %w", err)
	}
	return id, c, st, nil
}

// parseHex8 decodes an eight-byte checksum field: hex digits in either
// case, which is what strconv.ParseUint(s, 16, 32) accepts in eight
// bytes.
func parseHex8(b []byte) (uint32, bool) {
	var v uint32
	for _, ch := range b {
		switch {
		case '0' <= ch && ch <= '9':
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		case 'A' <= ch && ch <= 'F':
			ch -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint32(ch)
	}
	return v, true
}

// payloadScanner reads a canonical record payload left to right, one
// literal and one value at a time. The first mismatch sets err, and
// every later step is then a no-op.
type payloadScanner struct {
	rest []byte
	strs *interner
	err  error
}

// lit consumes the literal s.
func (p *payloadScanner) lit(s string) {
	if p.err != nil {
		return
	}
	if len(p.rest) < len(s) || string(p.rest[:len(s)]) != s {
		p.err = fmt.Errorf("expected %s", s)
		return
	}
	p.rest = p.rest[len(s):]
}

// fail records err as the scan's error, naming the field it hit.
func (p *payloadScanner) fail(key string, err error) {
	p.err = fmt.Errorf("%s: %w", strings.Trim(key, `{,":`), err)
}

// str consumes the literal key, then a JSON string, and returns its
// interned number in field f. When the string is, quotes included, the
// plain spelling of the name f resolved last, one compare reads it:
// that name holds no quote or backslash, so its closing quote is the
// string's end. Otherwise a string of printable ASCII other than the
// bytes json.Marshal escapes (" \ < > &) is its own bytes, and any other
// string token is decoded by encoding/json, so escapes and invalid UTF-8
// read exactly as they always have.
func (p *payloadScanner) str(key string, f field) uint32 {
	p.lit(key)
	if p.err != nil {
		return 0
	}
	if len(p.rest) == 0 || p.rest[0] != '"' {
		p.fail(key, errors.New("expected a string"))
		return 0
	}
	if l := p.strs.last[f]; int(l) < len(p.strs.names) {
		if n := p.strs.names[l]; n.plain && len(p.rest) >= len(n.s)+2 &&
			p.rest[len(n.s)+1] == '"' && string(p.rest[1:len(n.s)+1]) == n.s {
			p.rest = p.rest[len(n.s)+2:]
			return l
		}
	}
	plain := true
	for i := 1; i < len(p.rest); i++ {
		switch ch := p.rest[i]; {
		case ch == '"':
			tok := p.rest[:i+1]
			p.rest = p.rest[i+1:]
			if plain {
				return p.strs.internBytes(f, tok[1:i])
			}
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				p.fail(key, err)
				return 0
			}
			return p.strs.intern(f, s)
		case ch == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case ch < 0x20 || ch > 0x7e || ch == '<' || ch == '>' || ch == '&':
			plain = false
		}
	}
	p.fail(key, errors.New("unterminated string"))
	return 0
}

// int consumes the literal key, then a JSON integer that fits in an int.
func (p *payloadScanner) int(key string) int { return int(p.num(key, strconv.IntSize)) }

// maxHandDigits is the most digits num reads by hand: every integer of
// up to 18 digits fits in an int64.
const maxHandDigits = 18

// num consumes the literal key, then a JSON integer (a number with no
// fraction or exponent, which strconv.ParseInt rejects) that fits in
// bits bits. A run of 1 to maxHandDigits digits that does not start
// with a redundant zero and fits is read by hand; a fraction or an
// exponent after it is left to fail the next literal. Every other token
// — a sign, a leading zero, a longer run, an overflow — is read by
// number and strconv.ParseInt.
func (p *payloadScanner) num(key string, bits int) int64 {
	p.lit(key)
	if p.err != nil {
		return 0
	}
	b, n := p.rest, 0
	var v int64
	for n < len(b) && n <= maxHandDigits && '0' <= b[n] && b[n] <= '9' {
		v = v*10 + int64(b[n]-'0')
		n++
	}
	if n > 0 && n <= maxHandDigits && (b[0] != '0' || n == 1) && (bits == 64 || v < 1<<(bits-1)) {
		p.rest = b[n:]
		return v
	}
	tok := p.number(key)
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		p.fail(key, err)
	}
	return v
}

// float consumes the literal key, then a JSON number that fits in a
// float64.
func (p *payloadScanner) float(key string) float64 {
	p.lit(key)
	tok := p.number(key)
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.fail(key, err)
	}
	return v
}

// number consumes a number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes;
// key names the field in its error. A leading zero ends the integer
// part, so "05" leaves "5" to fail the next literal.
func (p *payloadScanner) number(key string) []byte {
	if p.err != nil {
		return nil
	}
	b, n := p.rest, 0
	if n < len(b) && b[n] == '-' {
		n++
	}
	ok := n < len(b) && b[n] >= '0' && b[n] <= '9'
	if ok && b[n] == '0' {
		n++
	} else {
		n += countDigits(b[n:])
	}
	if ok && n < len(b) && b[n] == '.' {
		d := countDigits(b[n+1:])
		ok, n = d > 0, n+1+d
	}
	if ok && n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		d := countDigits(b[n:])
		ok, n = d > 0, n+d
	}
	if !ok {
		p.fail(key, errors.New("expected a number"))
		return nil
	}
	p.rest = b[n:]
	return b[:n]
}

// countDigits returns the length of the run of ASCII digits b starts with.
func countDigits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// Store is the open result store: an in-memory cell index over the
// segment log, with an append handle on the final segment from the first
// append on. All methods are safe for concurrent use — the coordinator's
// in-process worker slots persist cells from several goroutines.
type Store struct {
	mu     sync.Mutex
	dir    string
	cells  map[key]eval.CellStats
	strs   interner      // numbers the names in cells' keys
	seg    *os.File      // append handle on the active segment; nil until the first append
	bw     *bufio.Writer // buffers seg; nil with it
	segIdx int           // active segment ordinal (1-based)
	segLen int64         // bytes in the active segment, buffered included
	maxSeg int64
	dirty  bool // unsynced appends outstanding
	added  int  // cells appended this session
	closed bool
	err    error // first write/sync failure, sticky
}

func segName(idx int) string { return fmt.Sprintf("cells-%06d.log", idx) }

// typicalRecordBytes is the record length Open sizes the index by: a
// little under the 234–247 bytes of a record written by a family-backend
// sweep (a 54-byte backend tag), so a store of such records is indexed
// without the map ever growing. A store of shorter records grows the
// map's tables as they fill; the shortest possible record is 152 bytes.
const typicalRecordBytes = 224

// Open opens (creating if needed) the store rooted at dir, rebuilding
// the index from every segment. A torn final record of the final segment
// is truncated away (crash recovery); any other damage is an error. Open
// creates the directory but no segment, and opens none for append: the
// first Put does that.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "cells-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs) // zero-padded ordinals: lexicographic == numeric

	var total int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		total += fi.Size()
	}
	s := &Store{
		dir:    dir,
		cells:  make(map[key]eval.CellStats, total/typicalRecordBytes),
		maxSeg: maxSegmentBytes,
		segIdx: 1,
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		n, err := s.loadSegment(seg, final)
		if err != nil {
			return nil, err
		}
		if final {
			s.segLen = n
			idx, perr := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(seg), "cells-"), ".log"))
			if perr != nil {
				return nil, fmt.Errorf("store: segment name %s: %w", seg, perr)
			}
			s.segIdx = idx
		}
	}
	return s, nil
}

// loadSegment replays one segment into the index and returns its durable
// length. The segment is streamed through a 64 KiB reader: a record is
// decoded in place in the reader's buffer, and only a record longer than
// that buffer is copied out, into one buffer reused for every such line.
// In the final segment a bad last record — torn write, whether or not
// the newline made it to disk — is truncated away; a bad record with data
// after it, or any bad record in an earlier segment, is corruption.
func (s *Store) loadSegment(path string, final bool) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close() // read only
	br := bufio.NewReaderSize(f, 64<<10)
	var off int64
	truncateTail := func() (int64, error) {
		if err := os.Truncate(path, off); err != nil {
			return 0, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
		}
		return off, nil
	}
	var long []byte // a line that overflowed br's buffer
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if rerr != nil && rerr != io.EOF {
			return 0, fmt.Errorf("store: %s: %w", path, rerr)
		}
		if len(line) == 0 {
			return off, nil
		}
		// rerr == nil exactly when the line ends in its newline.
		rec := line
		if rerr == nil {
			rec = line[:len(line)-1]
		}
		// Decode before any Peek: a Peek may refill the buffer line is in.
		id, c, st, derr := decodeRecord(rec, &s.strs)
		if derr != nil {
			last := rerr == io.EOF
			if !last {
				_, perr := br.Peek(1)
				if perr != nil && perr != io.EOF {
					return 0, fmt.Errorf("store: %s: %w", path, perr)
				}
				last = perr == io.EOF
			}
			if final && last {
				// The signature of a crash mid-append: a record that does not
				// decode, as the last line of the last segment. Drop the torn
				// tail and continue from the last durable record.
				return truncateTail()
			}
			return 0, fmt.Errorf("store: %s: offset %d: %w", path, off, derr)
		}
		if rerr == io.EOF {
			// The record decodes but lost its newline: the next append would
			// corrupt it, so drop it too — one recomputed cell, not a risk.
			// Only the final segment may end without a newline (earlier ones
			// were sealed by rotation).
			if !final {
				return 0, fmt.Errorf("store: %s: offset %d: record missing newline mid-store", path, off)
			}
			return truncateTail()
		}
		// A checksummed record can't be a torn write, so a conflicting
		// duplicate is always corruption (or upstream nondeterminism) —
		// never recovered from, wherever it sits.
		k, _ := s.strs.key(id, c) // decodeRecord interned every name
		if old, dup := s.cells[k]; dup && old != st {
			return 0, fmt.Errorf("store: %s: offset %d: cell %s %+v recorded twice with conflicting stats (%+v vs %+v)",
				path, off, id, c, old, st)
		}
		s.cells[k] = st
		off += int64(len(line))
	}
}

// Get returns the stats stored for one cell.
func (s *Store) Get(id Identity, c eval.Coord) (eval.CellStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(id, c)
}

// getLocked is Get with the lock held. A name the store has never held
// is a miss, and it is not interned.
func (s *Store) getLocked(id Identity, c eval.Coord) (eval.CellStats, bool) {
	k, ok := s.strs.key(id, c)
	if !ok {
		return eval.CellStats{}, false
	}
	st, ok := s.cells[k]
	return st, ok
}

// Len reports the number of resident cells across all identities.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// Added reports how many cells this session has appended — the
// "persisted new cells" number ops output surfaces.
func (s *Store) Added() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.added
}

// Err reports the first append/sync failure, if any. Once set, the
// store serves reads but accepts no further writes.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Put appends one cell. Re-putting an identical cell is a no-op;
// putting a conflicting value for a resident cell is rejected — under
// one identity a coordinate has exactly one correct value, so a
// conflict means nondeterminism upstream and must fail loudly, not
// average away.
func (s *Store) Put(id Identity, c eval.Coord, st eval.CellStats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.putLocked(id, c, st)
	return err
}

// Split partitions a plan against the store: the cells already resident
// under id come back as held (no execution needed), every other query as
// rest, in plan order. This is the one place a sweep adopts stored cells.
func (s *Store) Split(id Identity, p *eval.Plan) (held *eval.ResultSet, rest *eval.Plan, err error) {
	if err := p.Err(); err != nil {
		return nil, nil, err
	}
	held, rest = eval.NewResultSet(), eval.NewPlan()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range p.Queries() {
		c := q.Coord()
		if st, ok := s.getLocked(id, c); ok {
			err = held.Put(c, st)
		} else {
			err = rest.Add(q)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return held, rest, nil
}

// PutSet banks a result set under id, in canonical order, and reports how
// many cells it appended and how many it already held identically. It is
// the one place that decides what persists: a cell with zero samples
// never does. That covers both cells that must not outlive their run — a
// declined coordinate, and a failed cell, which the Runner zeroes: a
// failure's zeros are a degradation signal, not a fact about the sweep,
// and banking them would make the failure permanent. The first
// conflicting cell (or write failure) stops the set with Put's error.
func (s *Store) PutSet(id Identity, rs *eval.ResultSet) (added, resident int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range rs.Coords() {
		st, _ := rs.Get(c)
		if st.Samples == 0 {
			continue
		}
		fresh, err := s.putLocked(id, c, st)
		if err != nil {
			return added, resident, err
		}
		if fresh {
			added++
		} else {
			resident++
		}
	}
	return added, resident, nil
}

// putLocked is Put with the lock held; fresh reports whether the cell was
// appended rather than already resident.
func (s *Store) putLocked(id Identity, c eval.Coord, st eval.CellStats) (fresh bool, err error) {
	if s.err != nil {
		return false, s.err
	}
	if old, ok := s.getLocked(id, c); ok {
		if old != st {
			return false, fmt.Errorf("store: cell %s %+v already holds %+v; refusing conflicting %+v", id, c, old, st)
		}
		return false, nil
	}
	line, err := encodeRecord(id, c, st)
	if err != nil {
		return false, err
	}
	if s.segLen >= s.maxSeg {
		if err := s.rotate(); err != nil {
			s.err = err
			return false, err
		}
	}
	if s.seg == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, segName(s.segIdx)), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			s.err = fmt.Errorf("store: append: %w", err)
			return false, s.err
		}
		s.seg = f
		s.bw = bufio.NewWriterSize(f, 1<<16)
	}
	if _, err := s.bw.Write(line); err != nil {
		s.err = fmt.Errorf("store: append: %w", err)
		return false, s.err
	}
	s.segLen += int64(len(line))
	s.cells[s.strs.internKey(id, c)] = st
	s.dirty = true
	s.added++
	return true, nil
}

// rotate seals the active segment (flush + fsync + close) if this session
// appended to it, and makes the next one active; the append that follows
// creates it. Called with the lock held.
func (s *Store) rotate() error {
	if s.seg != nil {
		if err := s.bw.Flush(); err != nil {
			return fmt.Errorf("store: rotate: %w", err)
		}
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("store: rotate: %w", err)
		}
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("store: rotate: %w", err)
		}
		s.seg, s.bw = nil, nil
	}
	s.segIdx++
	s.segLen = 0
	s.dirty = false
	return nil
}

// Sync makes every accepted Put durable: buffered appends are flushed
// and the active segment fsynced; with nothing appended since the last
// Sync it does nothing. The caching layer's writer calls it after each
// plan-order group of 32 misses it banks, and its Cells path after each
// miss batch, which is what "resume from the last durable cell" means
// concretely.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.err != nil {
		return s.err
	}
	if !s.dirty {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		s.err = fmt.Errorf("store: sync: %w", err)
		return s.err
	}
	if err := s.seg.Sync(); err != nil {
		s.err = fmt.Errorf("store: sync: %w", err)
		return s.err
	}
	s.dirty = false
	return nil
}

// Close syncs and closes the store. The store accepts no further writes
// afterwards; calling Close again is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if s.seg != nil {
		if cerr := s.seg.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("store: close: %w", cerr)
		}
		s.seg, s.bw = nil, nil
	}
	if s.err == nil {
		s.err = fmt.Errorf("store: closed")
	}
	return err
}
