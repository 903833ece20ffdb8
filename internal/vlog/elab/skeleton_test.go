package elab

import (
	"fmt"
	"testing"

	"repro/internal/vlog"
)

func parseFile(t *testing.T, src string) *vlog.SourceFile {
	t.Helper()
	f, err := vlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
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
