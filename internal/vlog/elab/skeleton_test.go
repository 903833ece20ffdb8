package elab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/vlog"
)

// fingerprint renders a Design into a canonical string for structural
// comparison. Instances are walked in ChildrenOf order; stream entries
// (Assigns/Procs/RegInits) are rendered by scope path plus the printed
// source of their AST nodes (elaboration synthesizes fresh ident nodes
// for port connections, so node identity cannot be compared — printed
// form and order can).
func fingerprint(d *Design) string {
	var b strings.Builder
	var walk func(in *Inst)
	walk = func(in *Inst) {
		fmt.Fprintf(&b, "inst %s mod=%s\n", in.Path, in.Mod.Name)
		var params []string
		for name := range in.Params {
			params = append(params, name)
		}
		sort.Strings(params)
		for _, name := range params {
			fmt.Fprintf(&b, "  param %s=%v\n", name, in.Params[name])
		}
		var sigs []string
		for name := range in.Signals {
			sigs = append(sigs, name)
		}
		sort.Strings(sigs)
		for _, name := range sigs {
			s := in.Signals[name]
			fmt.Fprintf(&b, "  sig %s w=%d msb=%d lsb=%d signed=%t reg=%t dir=%v\n",
				s.Name, s.Width, s.MSB, s.LSB, s.Signed, s.IsReg, s.Dir)
		}
		var mems []string
		for name := range in.Mems {
			mems = append(mems, name)
		}
		sort.Strings(mems)
		for _, name := range mems {
			m := in.Mems[name]
			fmt.Fprintf(&b, "  mem %s w=%d depth=%d lo=%d\n", m.Name, m.Width, m.Depth, m.AddrLo)
		}
		for _, c := range d.ChildrenOf(in) {
			walk(c)
		}
	}
	walk(d.Top)
	for _, a := range d.Assigns {
		fmt.Fprintf(&b, "assign %s=%s l=%s r=%s\n",
			vlog.PrintExpr(a.LHS), vlog.PrintExpr(a.RHS), a.LScope.Path, a.RScope.Path)
	}
	for _, p := range d.Procs {
		fmt.Fprintf(&b, "proc k=%d scope=%s body=%s\n", p.Kind, p.Scope.Path, vlog.PrintStmt(p.Body))
	}
	for _, r := range d.RegInits {
		fmt.Fprintf(&b, "reginit %s.%s=%s\n", r.Scope.Path, r.Name, vlog.PrintExpr(r.Value))
	}
	return b.String()
}

// skelTB is a testbench exercising every splice position that matters:
// stream entries before, between, and after two hole instantiations at
// the top level, plus a hole buried inside a non-hole helper module.
const skelTB = `module helper(input a, output y);
  wire t;
  assign t = a;
  hole2 h2(.a(t), .y(y));
endmodule
module tb;
  reg clk = 0;
  reg a = 1;
  wire y1, y2, hy, inv;
  assign inv = ~a;
  hole u1(.a(a), .y(y1));
  always #5 clk = ~clk;
  helper h(.a(a), .y(hy));
  hole u2(.a(clk), .y(y2));
  initial begin
    #12 $display("y1=%b y2=%b hy=%b inv=%b", y1, y2, hy, inv);
    $finish;
  end
endmodule
`

// skelCands are candidate files of varying internal structure: a flat
// assign, a candidate with its own hierarchy, and one contributing procs
// and reg initializers of its own.
var skelCands = []string{
	`module hole(input a, output y);
  assign y = ~a;
endmodule
module hole2(input a, output y);
  assign y = a;
endmodule
`,
	`module hole(input a, output y);
  inner i(.a(a), .y(y));
endmodule
module inner(input a, output y);
  assign y = a;
endmodule
module hole2(input a, output y);
  inner j(.a(a), .y(y));
endmodule
`,
	`module hole(input a, output y);
  reg r = 0;
  always @(a) r = ~a;
  assign y = r;
endmodule
module hole2(input a, output y);
  reg s = 1;
  always @(a) s = a;
  assign y = s;
endmodule
`,
}

func parseFile(t *testing.T, src string) *vlog.SourceFile {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func newSkel(t *testing.T, tb *vlog.SourceFile) *Skeleton {
	t.Helper()
	sk, err := NewSkeleton(tb, "tb", HoleModules(tb), Options{})
	if err != nil {
		t.Fatalf("NewSkeleton: %v", err)
	}
	return sk
}

// TestSpliceMatchesFullElaboration is the structural-identity contract:
// for every candidate, Splice must produce the same instance tree, the
// same signals, and the same stream order over the same AST nodes as
// Elaborate(Compose(cand, tb)).
func TestSpliceMatchesFullElaboration(t *testing.T) {
	tb := parseFile(t, skelTB)
	sk := newSkel(t, tb)
	if len(sk.holes) != 3 {
		t.Fatalf("skeleton deferred %d holes, want 3 (u1, u2, helper.h2)", len(sk.holes))
	}
	for i, src := range skelCands {
		cand := parseFile(t, src)
		spliced, err := sk.Splice(cand)
		if err != nil {
			t.Fatalf("cand %d: splice: %v", i, err)
		}
		full, err := Elaborate(vlog.Compose(cand, tb), "tb", Options{})
		if err != nil {
			t.Fatalf("cand %d: full elaborate: %v", i, err)
		}
		if got, want := fingerprint(spliced), fingerprint(full); got != want {
			t.Errorf("cand %d: spliced design diverges from full elaboration:\nspliced:\n%s\nfull:\n%s", i, got, want)
		}
	}
}

// TestSpliceRepeatable: splicing the same candidate twice yields the same
// structure, and a failed splice in between leaves the skeleton intact.
func TestSpliceRepeatable(t *testing.T) {
	tb := parseFile(t, skelTB)
	sk := newSkel(t, tb)
	cand := parseFile(t, skelCands[0])
	d1, err := sk.Splice(cand)
	if err != nil {
		t.Fatal(err)
	}
	// A candidate whose hole module lacks the connected port must fail the
	// splice exactly like it fails full elaboration...
	bad := parseFile(t, "module hole(input b, output y);\n  assign y = b;\nendmodule\nmodule hole2(input a, output y);\n  assign y = a;\nendmodule\n")
	if _, err := sk.Splice(bad); err == nil {
		t.Error("splice of port-mismatched candidate succeeded")
	}
	if _, err := Elaborate(vlog.Compose(bad, tb), "tb", Options{}); err == nil {
		t.Error("full elaboration of port-mismatched candidate succeeded")
	}
	// ...and must not poison later splices.
	d2, err := sk.Splice(cand)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(d1) != fingerprint(d2) {
		t.Error("re-splice of the same candidate produced a different design")
	}
}

// TestSpliceShadowFallsBack: a candidate redefining a module the skeleton
// already bound must be rejected — full elaboration would have resolved
// the name to the candidate's definition, so the skeleton's binding is
// stale and only a full re-elaboration is correct.
func TestSpliceShadowFallsBack(t *testing.T) {
	tb := parseFile(t, skelTB)
	sk := newSkel(t, tb)
	shadow := parseFile(t, `module helper(input a, output y);
  assign y = a;
endmodule
module hole(input a, output y);
  assign y = a;
endmodule
module hole2(input a, output y);
  assign y = a;
endmodule
`)
	if _, err := sk.Splice(shadow); err == nil {
		t.Fatal("splice accepted a candidate shadowing a testbench module")
	}
}

// TestSpliceSharedInstsNotMutated pins the sharing invariant that makes
// concurrent splices safe: the skeleton's Inst objects never grow spliced
// children; the merged order is only visible through Design.ChildrenOf.
func TestSpliceSharedInstsNotMutated(t *testing.T) {
	tb := parseFile(t, skelTB)
	sk := newSkel(t, tb)
	topKidsBefore := len(sk.d.Top.Children)
	d, err := sk.Splice(parseFile(t, skelCands[0]))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Top.Children); got != topKidsBefore {
		t.Errorf("splice mutated the shared top Inst: %d children, had %d", got, topKidsBefore)
	}
	merged := d.ChildrenOf(d.Top)
	if len(merged) != topKidsBefore+2 {
		t.Fatalf("ChildrenOf(top) = %d kids, want %d skeleton + 2 spliced", len(merged), topKidsBefore)
	}
	var paths []string
	for _, c := range merged {
		paths = append(paths, c.Path)
	}
	want := []string{"tb.u1", "tb.h", "tb.u2"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("merged child order = %v, want %v", paths, want)
	}
}

// TestSpliceConcurrent splices distinct candidates against one skeleton
// from many goroutines; run under -race this pins the Skeleton's
// immutability contract.
func TestSpliceConcurrent(t *testing.T) {
	tb := parseFile(t, skelTB)
	sk := newSkel(t, tb)
	want := make([]string, len(skelCands))
	cands := make([]*vlog.SourceFile, len(skelCands))
	for i, src := range skelCands {
		cands[i] = parseFile(t, src)
		full, err := Elaborate(vlog.Compose(cands[i], tb), "tb", Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(full)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		for i := range cands {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				d, err := sk.Splice(cands[i])
				if err != nil {
					t.Errorf("cand %d: %v", i, err)
					return
				}
				if fingerprint(d) != want[i] {
					t.Errorf("cand %d: concurrent splice diverged from full elaboration", i)
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestHoleModules pins hole discovery: instantiated-but-undefined modules
// in first-reference order, deduplicated, with defined modules excluded.
func TestHoleModules(t *testing.T) {
	f := parseFile(t, `module a;
  missing1 m1();
  defined d1();
  missing2 m2();
  missing1 m3();
endmodule
module defined;
endmodule
module b;
  missing3 m4();
  missing2 m5();
endmodule
`)
	got := HoleModules(f)
	want := []string{"missing1", "missing2", "missing3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("HoleModules = %v, want %v", got, want)
	}
	if holes := HoleModules(parseFile(t, "module all;\nendmodule\n")); len(holes) != 0 {
		t.Errorf("self-contained file reported holes %v", holes)
	}
}
