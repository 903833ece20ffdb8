package store

// The in-memory cell index. Open replays every record into one map from
// a key of integers to the cell's stats: the backend tag, model and
// variant are numbered by a per-store interner, and every read path
// translates names to numbers on the way in and back on the way out.

import "repro/internal/eval"

// key is one cell's full address in the index: the identity and
// coordinate with each name replaced by its interner number. It holds no
// strings, so a map slot holds no pointers for the collector to trace,
// and its fields are laid out with no padding between them, so it is
// hashed and compared as one run of memory.
type key struct {
	seed                    int64
	problem, level          int
	tempMilli, n            int
	backend, model, variant uint32
}

// field is one of a record's three string fields.
type field int

const (
	backendField field = iota
	modelField
	variantField
)

// interner numbers the distinct strings a store holds — backend tags,
// model and variant names — so that the cell index keys on integers.
// ids maps a name to its number and names maps the number back; each
// name is held once, and a replayed record allocates no string once its
// names have been seen. last is, per field, the number that field
// resolved to most recently: a store's records repeat their names, so
// one compare against it answers most lookups without hashing, and it
// is only ever a hint. The zero value is ready to use.
type interner struct {
	ids   map[string]uint32
	names []name
	last  [3]uint32
}

// name is one interned string. plain reports that json.Marshal writes
// it as its own bytes: printable ASCII other than " \ < > &.
type name struct {
	s     string
	plain bool
}

// lookup returns the number of s in field f without interning it; ok is
// false when the store has never held s.
func (in *interner) lookup(f field, s string) (id uint32, ok bool) {
	if l := in.last[f]; int(l) < len(in.names) && in.names[l].s == s {
		return l, true
	}
	if id, ok = in.ids[s]; ok {
		in.last[f] = id
	}
	return id, ok
}

// intern returns the number of s in field f, numbering s if it is new.
func (in *interner) intern(f field, s string) uint32 {
	id, ok := in.lookup(f, s)
	if !ok {
		if in.ids == nil {
			in.ids = map[string]uint32{}
		}
		id = uint32(len(in.names))
		in.names = append(in.names, name{s: s, plain: isPlain(s)})
		in.ids[s] = id
		in.last[f] = id
	}
	return id
}

// internBytes is intern for a name still in the reader's buffer; it
// copies b only when b is new.
func (in *interner) internBytes(f field, b []byte) uint32 {
	if id, ok := in.ids[string(b)]; ok {
		in.last[f] = id
		return id
	}
	return in.intern(f, string(b))
}

// key returns the index key of the cell (id, c). ok is false when the
// store has never held one of its names: no resident cell has that key,
// and nothing is interned.
func (in *interner) key(id Identity, c eval.Coord) (k key, ok bool) {
	b, okb := in.lookup(backendField, id.Backend)
	m, okm := in.lookup(modelField, c.Model)
	v, okv := in.lookup(variantField, c.Variant)
	return key{
		backend: b, model: m, variant: v, seed: id.Seed,
		problem: c.Problem, level: c.Level, tempMilli: c.TempMilli, n: c.N,
	}, okb && okm && okv
}

// internKey is key for a cell about to be indexed: its new names are
// numbered.
func (in *interner) internKey(id Identity, c eval.Coord) key {
	return key{
		backend: in.intern(backendField, id.Backend), model: in.intern(modelField, c.Model),
		variant: in.intern(variantField, c.Variant), seed: id.Seed,
		problem: c.Problem, level: c.Level, tempMilli: c.TempMilli, n: c.N,
	}
}

// cell translates an index key back to the identity and coordinate it
// addresses.
func (in *interner) cell(k key) (Identity, eval.Coord) {
	return Identity{Backend: in.names[k.backend].s, Seed: k.seed}, eval.Coord{
		Model: in.names[k.model].s, Variant: in.names[k.variant].s,
		Problem: k.problem, Level: k.level, TempMilli: k.tempMilli, N: k.n,
	}
}

// isPlain reports whether every byte of s is one the payload scanner
// takes as itself: printable ASCII other than the bytes json.Marshal
// escapes.
func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if ch := s[i]; ch < 0x20 || ch > 0x7e || ch == '"' || ch == '\\' || ch == '<' || ch == '>' || ch == '&' {
			return false
		}
	}
	return true
}
