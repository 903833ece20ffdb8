package goanalysis

// nondet: ambient nondeterminism sources are banned in output-bearing
// packages. Byte-identical sweeps at any worker width (PR 1) survive only
// if no code path reads the wall clock, the process id, or the global
// math/rand stream; the one legitimate clock consumer is the coordinator's
// backoff/straggler machinery, which is allow-listed as the seam (its
// output never reaches rendered bytes — retries re-produce identical
// shard files). select statements over map-indexed channels compound map
// order with select's own randomization and are banned outright.

import (
	"go/ast"
	"go/types"
)

// DefaultNondetSeams is the allow-listed clock seam: the coordinator's
// retry state machine and the remote transport's retry/circuit-breaker
// machinery. Both make timing decisions that never reach output bytes —
// retries re-produce identical samples, and a timing difference can only
// change *when* a request runs, never *what* it returns.
var DefaultNondetSeams = map[string]string{
	"coord.supervisor.run":      "wakeup timer scheduling for backoff expiry and steal eligibility",
	"coord.supervisor.dispatch": "backoff eligibility and straggler age checks",
	"coord.supervisor.start":    "straggler timing for steal eligibility",
	"coord.supervisor.handle":   "retry backoff deadline stamping",
	"remote.breaker.Allow":      "circuit-breaker cooldown expiry check",
	"remote.breaker.Failure":    "circuit-breaker trip timestamping",
	"remote.newTransport":       "sweep-budget deadline anchoring at construction",
}

// Nondet flags ambient nondeterminism (time.Now/Since/Until, global
// math/rand, os.Getpid, map-keyed select) outside the seam functions.
func Nondet(seams map[string]string) *Analyzer {
	return &Analyzer{
		Name:      "nondet",
		Doc:       "wall clock, global math/rand, pid, or map-keyed select in an output-bearing package",
		Directive: "nondet",
		Packages:  outputBearing,
		Run:       func(pass *Pass) { runNondet(pass, seams) },
	}
}

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than drawing from the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runNondet(pass *Pass, seams map[string]string) {
	info := pass.TypesInfo
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		_, clockSeam := seams[funcKey(pass.Pkg.Name(), fd)]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				switch {
				case isPkgFunc(fn, "time", "Now", "Since", "Until"):
					if !clockSeam {
						pass.Reportf(n.Pos(),
							"time.%s reads the wall clock outside the coord backoff/timer seam; inject time through a parameter or annotate //vgencheck:nondet <reason>", fn.Name())
					}
				case isGlobalRand(fn):
					pass.Reportf(n.Pos(),
						"rand.%s draws from the process-global math/rand stream; use a seeded *rand.Rand derived from the run seed", fn.Name())
				case isPkgFunc(fn, "os", "Getpid", "Getppid"):
					pass.Reportf(n.Pos(),
						"os.%s is per-process state that breaks cross-process reproducibility", fn.Name())
				}
			case *ast.SelectStmt:
				reportMapKeyedSelect(pass, info, n)
			}
			return true
		})
	})
}

// isGlobalRand reports a package-level math/rand (or rand/v2) call that
// draws from the shared global stream — constructors are fine.
func isGlobalRand(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if !isPkgFunc(fn, "math/rand") && !isPkgFunc(fn, "math/rand/v2") {
		return false
	}
	return !randConstructors[fn.Name()]
}

// reportMapKeyedSelect flags select cases whose channel comes out of a
// map index: map order times select's own case randomization.
func reportMapKeyedSelect(pass *Pass, info *types.Info, sel *ast.SelectStmt) {
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		ast.Inspect(comm.Comm, func(n ast.Node) bool {
			if idx, ok := n.(*ast.IndexExpr); ok && isMapExpr(info, idx.X) {
				pass.Reportf(comm.Pos(),
					"select case reads a channel out of a map; map order compounds select nondeterminism — pin channels in a slice")
				return false
			}
			return true
		})
	}
}
