// Golden corpus for the reach analyzer: functions, methods and fields
// with and without a shipped use. The caller package reach/cmd is a
// main package, the shape of bench/ and examples/.
package reach

// Positive: nothing refers to it.
func unused() {} // want "reach.unused is never referenced by shipped code"

// Positive: recursion is not a caller.
func countdown(n int) int { // want "reach.countdown is never referenced by shipped code"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// T carries the method cases.
type T struct{ n int }

// Positive: an uncalled method.
func (t *T) Dead() int { return t.n } // want "reach.T.Dead is never referenced by shipped code"

// Negative: taken as a method value below.
func (t *T) Val() int { return t.n }

// Negative: satisfies Sizer, which the package spells.
func (t *T) Size() int { return t.n }

// Sizer is an interface T satisfies.
type Sizer interface{ Size() int }

// Negative: a generic function called only through an instantiation.
func Sum[E int | float64](xs []E) E {
	var s E
	for _, x := range xs {
		s += x
	}
	return s
}

// Negative: called only from the main package reach/cmd.
func Exported() int {
	t := &T{n: 1}
	val := t.Val
	var s Sizer = t
	return val() + s.Size() + Sum([]int{1, 2}) + read()
}

// Config carries the field cases.
type Config struct {
	Limit   int // want "field Config.Limit is read but never written by shipped code"
	Workers int // negative: written through &cfg.Workers
	Size    int // negative: written through an elided-type map literal
	Unread  int // negative: never read, so no zero value reaches a reader
	Depth   int //vgencheck:oracle reference setting the golden test reads
}

var specs = map[string]*Config{"a": {Size: 1}}

func setInt(p *int, v int) { *p = v }

func read() int {
	var cfg Config
	setInt(&cfg.Workers, 2)
	return cfg.Limit + cfg.Workers + specs["a"].Size + cfg.Depth
}

// Suppressed: an explained waiver.
//
//vgencheck:oracle reference implementation the golden test pins
func oracle() {}

// Suppressed: the waiver cites tests the package's _test.go files
// declare, bare and qualified (one from the external reach_test
// package); the plain words Tests and Benchmark cite nothing.
//
//vgencheck:oracle reference TestOracleCited and reach.FuzzOracleCited check shipped code against, as Tests and Benchmark rows do
func citedOracle() {}

// Positive: the waiver cites a test no _test.go file declares, and one
// qualified by a package that does not declare it.
//
//vgencheck:oracle reference TestGone and cmd.TestOracleCited checked // want "stale citation: //vgencheck:oracle names TestGone," "stale citation: //vgencheck:oracle names cmd.TestOracleCited,"
func staleOracle() {}
