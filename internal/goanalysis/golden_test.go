package goanalysis

// Golden-test harness in the style of x/tools' analysistest, stdlib only:
// testdata packages carry `// want "re"` comments on the lines an
// analyzer must flag (several per line allowed), and RunGolden fails the
// test on any unmatched want or unexpected diagnostic. Suppressed cases
// carry a //vgencheck directive and no want; they are asserted through
// the returned Result's suppression inventory.

import (
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
var wantChunkRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

var golden struct {
	once sync.Once
	m    *Module
	err  error
}

// goldenModule is the testdata/src tree, loaded once per test binary,
// with the named packages selected for analysis. LoadModule loads every
// package of a tree whatever it selects, so a selection over the shared
// load is the module LoadModule(root, pkgs) would return.
func goldenModule(t *testing.T, pkgs ...string) *Module {
	t.Helper()
	golden.once.Do(func() { golden.m, golden.err = LoadModule("testdata/src", []string{"./..."}) })
	if golden.err != nil {
		t.Fatalf("load golden tree: %v", golden.err)
	}
	m := *golden.m
	m.Pkgs = nil
	for _, pkg := range golden.m.Pkgs {
		if matchPatterns(pkg.Path, pkgs) {
			m.Pkgs = append(m.Pkgs, pkg)
		}
	}
	if len(m.Pkgs) == 0 {
		t.Fatalf("no golden package matches %v", pkgs)
	}
	return &m
}

// RunGolden checks the analyzer's diagnostics for the named packages of
// testdata/src against their // want comments. The analyzer's
// package filter is bypassed: golden packages are named after the case,
// not after the production package. The full Result is returned so tests
// can additionally assert the suppression inventory.
func RunGolden(t *testing.T, a *Analyzer, pkgs ...string) *Result {
	t.Helper()
	m := goldenModule(t, pkgs...)
	res := analyze(m, []*Analyzer{a}, false)

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			tf := m.Fset.File(file.Pos())
			src := readFileLines(t, tf.Name())
			rel := m.Rel(token.Position{Filename: tf.Name()})
			for i, line := range src {
				mm := wantRe.FindStringSubmatch(line)
				if mm == nil {
					continue
				}
				for _, chunk := range wantChunkRe.FindAllString(mm[1], -1) {
					pat, err := strconv.Unquote(chunk)
					if err != nil {
						t.Fatalf("%s:%d: bad want %s: %v", rel.Filename, i+1, chunk, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", rel.Filename, i+1, pat, err)
					}
					wants[key{rel.Filename, i + 1}] = append(wants[key{rel.Filename, i + 1}], re)
				}
			}
		}
	}

	matched := map[key][]bool{}
	for _, f := range res.Findings {
		k := key{f.File, f.Line}
		ws := wants[k]
		if matched[k] == nil {
			matched[k] = make([]bool, len(ws))
		}
		ok := false
		for i, re := range ws {
			if !matched[k][i] && re.MatchString(f.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, f)
		}
	}
	for k, ws := range wants {
		for i, re := range ws {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s: %s:%d: no diagnostic matched want %q", a.Name, k.file, k.line, re)
			}
		}
	}
	return res
}

// readFileLines splits a source file for want scanning.
func readFileLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return strings.Split(string(data), "\n")
}

// SuppressionAt asserts the inventory holds a directive at file:line and
// returns it — how golden tests pin their suppressed cases.
func SuppressionAt(t *testing.T, res *Result, file string, line int) Suppression {
	t.Helper()
	for _, s := range res.Suppressions {
		if s.File == file && s.Line == line {
			return s
		}
	}
	t.Fatalf("no suppression recorded at %s:%d (inventory: %+v)", file, line, res.Suppressions)
	return Suppression{}
}
