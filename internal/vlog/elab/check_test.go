package elab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vlog"
	"repro/internal/vnum"
)

// parseExpr parses src as the right-hand side of a continuous assignment.
func parseExpr(src string) (vlog.Expr, error) {
	f, err := vlog.Parse("module m; assign x = " + src + "; endmodule")
	if err != nil {
		return nil, err
	}
	return f.Modules[0].Items[0].(*vlog.ContAssign).Assigns[0].RHS, nil
}

func constOf(t *testing.T, src string, params map[string]uint64) vnum.Value {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parse expr: %v", err)
	}
	inst := &Inst{Params: map[string]vnum.Value{}}
	for k, v := range params {
		inst.Params[k] = vnum.FromUint64(32, v)
	}
	v, err := ConstEval(e, inst)
	if err != nil {
		t.Fatalf("const eval %q: %v", src, err)
	}
	return v
}

func TestConstEvalOperators(t *testing.T) {
	cases := map[string]uint64{
		"1 + 2":          3,
		"10 - 3":         7,
		"4 * 5":          20,
		"17 / 5":         3,
		"17 % 5":         2,
		"2 ** 6":         64,
		"12 & 10":        8,
		"12 | 10":        14,
		"12 ^ 10":        6,
		"3 << 2":         12,
		"12 >> 2":        3,
		"5 == 5":         1,
		"5 != 5":         0,
		"3 < 4":          1,
		"4 <= 4":         1,
		"5 > 9":          0,
		"5 >= 5":         1,
		"1 && 0":         0,
		"1 || 0":         1,
		"!0":             1,
		"~0":             0xFFFFFFFF,
		"-1":             0xFFFFFFFF,
		"+7":             7,
		"1 ? 11 : 22":    11,
		"0 ? 11 : 22":    22,
		"W - 1":          7,
		"W * 2 + 1":      17,
		"&3":             0, // 32-bit 3 has zero bits above bit 1
		"|0":             0,
		"^3":             0,
		"~&1":            1,
		"~|0":            1,
		"~^3":            1,
		"5 === 5":        1,
		"5 !== 6":        1,
		"{2'b10, 2'b01}": 9,
		"{2{2'b01}}":     5,
	}
	for src, want := range cases {
		v := constOf(t, src, map[string]uint64{"W": 8})
		got, ok := v.AsUnsigned().Uint64()
		if !ok || got != want {
			t.Errorf("%q = %d (ok=%v), want %d", src, got, ok, want)
		}
	}
}

func TestConstEvalErrors(t *testing.T) {
	for _, src := range []string{"sig + 1", "{sig, 1'b0}", "{N{1'b1}}"} {
		e, err := parseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ConstEval(e, &Inst{Params: map[string]vnum.Value{}}); err == nil {
			t.Errorf("%q should not be constant", src)
		}
	}
}

func TestConstEvalHugeReplicationRejected(t *testing.T) {
	e, err := parseExpr("{100000{1'b1}}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConstEval(e, &Inst{Params: map[string]vnum.Value{}}); err == nil {
		t.Fatal("huge replication accepted")
	}
}

func TestElabMoreErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"memory write whole", `module m; reg [7:0] mem [3:0]; always @(*) mem = 0; endmodule`, "one word at a time"},
		{"mem as ca target", `module m; reg [7:0] mem [3:0]; wire w; assign mem[0] = 1; endmodule`, "continuous assignment target"},
		{"mem decl wire", `module m; wire [7:0] mem [3:0]; endmodule`, "must be declared reg"},
		{"dup mem", `module m; reg [7:0] mem [3:0]; reg [7:0] mem [3:0]; endmodule`, "duplicate"},
		{"mem signal clash", `module m; reg [7:0] mem [3:0]; wire mem; endmodule`, "duplicate"},
		{"unknown sysfunc", `module m; wire w; assign w = $bogusfunc(1); endmodule`, "unknown system function"},
		{"bad lvalue", `module m; reg r; always @(*) 5 = r; endmodule`, ""},
		{"conflicting widths", `module m(a); input [3:0] a; wire [7:0] a; endmodule`, "conflicting widths"},
		{"dup port decl", `module m(a); input a; input a; endmodule`, "duplicate port"},
		{"partselect nonconst", `module m(input [7:0] v, input [2:0] i, output w); assign w = v[i:0]; endmodule`, "not a constant"},
		{"too wide", `module m; wire [100000:0] v; endmodule`, "too wide"},
		{"huge memory", `module m; reg [7:0] mem [2000000:0]; endmodule`, "too large"},
		{"positional param overflow", `module c(input a); endmodule
module m; wire w; c #(1, 2) c0 (.a(w)); endmodule`, "too many parameter"},
		{"mixed conns", `module c(input a, input b); endmodule
module m; wire w; c c0 (.a(w), w); endmodule`, "mix named and positional"},
		{"output to expr", `module c(output o); assign o = 1; endmodule
module m; wire w, v; c c0 (.o(w & v)); endmodule`, "net lvalue"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := vlog.Parse(c.src)
			if err != nil {
				// a parse error also counts for the bad-lvalue case
				if c.want == "" {
					return
				}
				t.Fatalf("parse: %v", err)
			}
			_, err = Elaborate(f, "m", Options{})
			if err == nil {
				t.Fatalf("expected elaboration error")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestElabInstanceLimit(t *testing.T) {
	// m holds mids mids of 64 leaves each: 1 + mids*65 instances, so 63
	// mids is exactly maxInstances and 64 mids is past it.
	design := func(mids int) *vlog.SourceFile {
		var b strings.Builder
		b.WriteString("module leaf; endmodule\nmodule mid;")
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&b, " leaf l%d();", i)
		}
		b.WriteString(" endmodule\nmodule m;")
		for i := 0; i < mids; i++ {
			fmt.Fprintf(&b, " mid x%d();", i)
		}
		b.WriteString(" endmodule\n")
		f, err := vlog.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if 1+63*65 != maxInstances {
		t.Fatalf("fixture sized for 4096 instances, limit is %d", maxInstances)
	}
	_, err := Elaborate(design(64), "m", Options{})
	if err == nil || !strings.Contains(err.Error(), "instance limit") {
		t.Fatalf("instance limit not enforced: %v", err)
	}
	if _, err := Elaborate(design(63), "m", Options{}); err != nil {
		t.Fatalf("a design of exactly maxInstances should elaborate: %v", err)
	}
}

func TestElabAscendingRange(t *testing.T) {
	d := elaborate(t, `module m; wire [0:7] v; endmodule`, "m")
	v := d.Top.Signals["v"]
	if v.Width != 8 || v.MSB != 0 || v.LSB != 7 {
		t.Fatalf("ascending range = %+v", v)
	}
}

func TestElabUnconnectedPort(t *testing.T) {
	src := `module c(input a, output y); assign y = ~a; endmodule
module m; wire w; c c0 (.a(), .y(w)); endmodule`
	d := elaborate(t, src, "m")
	// only the output connection produces an implicit assign (plus c's own)
	if len(d.Assigns) != 2 {
		t.Fatalf("assigns = %d", len(d.Assigns))
	}
}

func TestElabTopNotFound(t *testing.T) {
	f, _ := vlog.Parse(`module a; endmodule`)
	if _, err := Elaborate(f, "zz", Options{}); err == nil {
		t.Fatal("missing top accepted")
	}
}

func TestApplyHelpers(t *testing.T) {
	a := vnum.FromUint64(8, 12)
	b := vnum.FromUint64(8, 10)
	if got, _ := ApplyBinary("&", a, b).Uint64(); got != 8 {
		t.Errorf("ApplyBinary & = %d", got)
	}
	if got, _ := ApplyUnary("~", vnum.FromUint64(4, 0)).Uint64(); got != 15 {
		t.Errorf("ApplyUnary ~ = %d", got)
	}
	if ApplyBinary("??", a, b).IsKnown() {
		t.Error("unknown operator should yield x")
	}
}
