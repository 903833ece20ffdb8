package elab

import "repro/internal/vlog"

// NewSkeleton, Skeleton.Splice and HoleModules stay only for
// bench/trace.go's stage replay, until the next change to the benchmark
// drops them. A Skeleton holds its testbench and top, and Splice is full
// elaboration of the composed file: the one way a Design is built.

// Skeleton is a testbench and its top module name.
type Skeleton struct {
	file *vlog.SourceFile
	top  string
}

// NewSkeleton returns the testbench's Skeleton. It ignores holes and
// never fails.
func NewSkeleton(file *vlog.SourceFile, top string, _ []string, _ Options) (*Skeleton, error) {
	return &Skeleton{file: file, top: top}, nil
}

// Splice is Elaborate(Compose(cand, testbench), top, Options{}).
func (sk *Skeleton) Splice(cand *vlog.SourceFile) (*Design, error) {
	return Elaborate(vlog.Compose(cand, sk.file), sk.top, Options{})
}

// HoleModules returns, in first-reference order, the module names the
// file instantiates but does not define — the holes a candidate file is
// expected to fill.
func HoleModules(file *vlog.SourceFile) []string {
	var holes []string
	seen := map[string]bool{}
	for _, m := range file.Modules {
		for _, it := range m.Items {
			n, ok := it.(*vlog.Instance)
			if !ok {
				continue
			}
			if seen[n.Module] || file.FindModule(n.Module) != nil {
				continue
			}
			seen[n.Module] = true
			holes = append(holes, n.Module)
		}
	}
	return holes
}
