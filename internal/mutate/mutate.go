// Package mutate applies semantics-changing AST mutations to Verilog
// modules. The operators reproduce the characteristic near-miss failures
// the paper observes in LLM completions: constants offset by one (Fig. 2c),
// missing wrap/else conditions (Fig. 3c), wrong feedback concatenation
// (Problem 7 discussion), dropped output terms (Fig. 4c), swapped
// operators, and wrong clock edges. The simulated-LLM sampler draws from
// these mutants to populate the "compiles but fails the test bench" bucket.
package mutate

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/vlog"
)

// ErrNoSite is returned when an operator finds nothing to mutate.
var ErrNoSite = errors.New("mutate: no applicable mutation site")

// Operator is one mutation rule.
type Operator struct {
	Name  string
	Doc   string
	apply func(m *vlog.Module, rng *rand.Rand) bool
}

// Operators lists every mutation rule, in a stable order.
var Operators = []Operator{
	{
		Name:  "bump-constant",
		Doc:   "offset a numeric literal by one (Fig. 2c: encoder positions off by one)",
		apply: bumpConstant,
	},
	{
		Name:  "drop-else-if",
		Doc:   "remove an else branch (Fig. 3c: counter that never wraps)",
		apply: dropElse,
	},
	{
		Name:  "swap-operator",
		Doc:   "replace a binary operator with a near neighbour (+/-, &/|, ==/!=)",
		apply: swapOperator,
	},
	{
		Name:  "negate-condition",
		Doc:   "logically negate an if condition",
		apply: negateCondition,
	},
	{
		Name:  "reverse-concat",
		Doc:   "reverse concatenation parts (Problem 7: wrong feedback concatenation)",
		apply: reverseConcat,
	},
	{
		Name:  "shift-slice",
		Doc:   "shift part-select bounds by one bit",
		apply: shiftSlice,
	},
	{
		Name:  "swap-ternary",
		Doc:   "swap the arms of a conditional expression",
		apply: swapTernary,
	},
	{
		Name:  "drop-case-arm",
		Doc:   "delete one non-default case arm (Fig. 4c: state with no transition)",
		apply: dropCaseArm,
	},
	{
		Name:  "wrong-edge",
		Doc:   "flip posedge/negedge in an event control",
		apply: wrongEdge,
	},
	{
		Name:  "drop-term",
		Doc:   "replace a binary expression by its left operand (Fig. 4c: missing output term)",
		apply: dropTerm,
	},
	{
		Name:  "drop-statement",
		Doc:   "delete one statement from a begin/end block",
		apply: dropStatement,
	},
	{
		Name:  "negate-rhs",
		Doc:   "bitwise-invert the right-hand side of an assignment (applies even to trivial bodies like 'assign out = in')",
		apply: negateRHS,
	},
	{
		Name:  "flip-assign-kind",
		Doc:   "swap blocking and nonblocking assignment (a classic generated-code style error; often race-prone rather than outright wrong)",
		apply: flipAssignKind,
	},
}

// Result is one produced mutant.
type Result struct {
	Source   string
	Operator string
}

// Apply parses src, applies one applicable operator chosen at random, and
// returns the re-printed source. It fails with ErrNoSite when no operator
// applies.
func Apply(src string, rng *rand.Rand) (Result, error) {
	order := rng.Perm(len(Operators))
	for _, idx := range order {
		op := Operators[idx]
		f, err := vlog.Parse(src)
		if err != nil {
			return Result{}, fmt.Errorf("mutate: input does not parse: %w", err)
		}
		m := f.Modules[0]
		if op.apply(m, rng) {
			return Result{Source: vlog.Print(f), Operator: op.Name}, nil
		}
	}
	return Result{}, ErrNoSite
}

// ---- site collection helpers ---------------------------------------------

// eachStmt walks every statement in the module's always/initial bodies.
func eachStmt(m *vlog.Module, visit func(vlog.Stmt)) {
	var walk func(vlog.Stmt)
	walk = func(s vlog.Stmt) {
		if s == nil {
			return
		}
		visit(s)
		switch n := s.(type) {
		case *vlog.Block:
			for _, sub := range n.Stmts {
				walk(sub)
			}
		case *vlog.If:
			walk(n.Then)
			walk(n.Else)
		case *vlog.Case:
			for _, item := range n.Items {
				walk(item.Body)
			}
		case *vlog.For:
			walk(n.Body)
		case *vlog.While:
			walk(n.Body)
		case *vlog.Repeat:
			walk(n.Body)
		case *vlog.Forever:
			walk(n.Body)
		case *vlog.Delay:
			walk(n.Stmt)
		case *vlog.EventCtrl:
			walk(n.Stmt)
		case *vlog.Wait:
			walk(n.Stmt)
		}
	}
	for _, it := range m.Items {
		switch n := it.(type) {
		case *vlog.AlwaysBlock:
			walk(n.Body)
		case *vlog.InitialBlock:
			walk(n.Body)
		}
	}
}

// eachExprPtr visits a pointer to every behavioural expression so operators
// can replace subtrees in place. It covers always/initial bodies and
// continuous assignments (declarations and ranges are left alone: mutants
// should stay compilable).
func eachExprPtr(m *vlog.Module, visit func(*vlog.Expr)) {
	var walkE func(*vlog.Expr)
	walkE = func(ep *vlog.Expr) {
		if *ep == nil {
			return
		}
		visit(ep)
		switch n := (*ep).(type) {
		case *vlog.Unary:
			walkE(&n.X)
		case *vlog.Binary:
			walkE(&n.X)
			walkE(&n.Y)
		case *vlog.Ternary:
			walkE(&n.Cond)
			walkE(&n.Then)
			walkE(&n.Else)
		case *vlog.Concat:
			for i := range n.Parts {
				walkE(&n.Parts[i])
			}
		case *vlog.Repl:
			walkE(&n.X)
		case *vlog.Index:
			walkE(&n.I)
		case *vlog.RangeSel:
			// bounds must stay constant; visit but don't descend
		case *vlog.SysCallExpr:
			for i := range n.Args {
				walkE(&n.Args[i])
			}
		}
	}
	eachStmt(m, func(s vlog.Stmt) {
		switch n := s.(type) {
		case *vlog.Assign:
			walkE(&n.RHS)
		case *vlog.If:
			walkE(&n.Cond)
		case *vlog.Case:
			walkE(&n.Expr)
			for i := range n.Items {
				for j := range n.Items[i].Exprs {
					walkE(&n.Items[i].Exprs[j])
				}
			}
		case *vlog.While:
			walkE(&n.Cond)
		case *vlog.Repeat:
			walkE(&n.Count)
		case *vlog.Wait:
			walkE(&n.Cond)
		}
	})
	for _, it := range m.Items {
		if ca, ok := it.(*vlog.ContAssign); ok {
			for _, a := range ca.Assigns {
				walkE(&a.RHS)
			}
		}
	}
}

// ---- operators -------------------------------------------------------------

func bumpConstant(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Expr
	eachExprPtr(m, func(ep *vlog.Expr) {
		if n, ok := (*ep).(*vlog.Number); ok {
			if n.Value.Width() <= 1 {
				return // flipping 1-bit constants is a different operator
			}
			sites = append(sites, ep)
		}
	})
	if len(sites) == 0 {
		return false
	}
	ep := sites[rng.Intn(len(sites))]
	old := (*ep).(*vlog.Number)
	u, ok := old.Value.Uint64()
	if !ok {
		return false
	}
	w := old.Value.Width()
	delta := uint64(1)
	if rng.Intn(2) == 0 {
		delta = ^uint64(0) // -1
	}
	nv := (u + delta) & ((1 << uint(min(w, 63))) - 1)
	if w >= 64 {
		nv = u + delta
	}
	text := fmt.Sprintf("%d'd%d", w, nv)
	val, err := parseLit(text)
	if err != nil {
		return false
	}
	*ep = &vlog.Number{Pos: old.Pos, Text: text, Value: val}
	return true
}

func dropElse(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.If
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.If); ok && n.Else != nil {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	sites[rng.Intn(len(sites))].Else = nil
	return true
}

var opSwaps = map[string][]string{
	"+": {"-"}, "-": {"+"},
	"&": {"|", "^"}, "|": {"&", "^"}, "^": {"&", "|", "~^"},
	"==": {"!="}, "!=": {"=="},
	"<": {"<=", ">"}, "<=": {"<", ">="}, ">": {">=", "<"}, ">=": {">", "<="},
	"<<": {">>"}, ">>": {"<<", ">>>"}, ">>>": {">>"},
	"&&": {"||"}, "||": {"&&"},
}

func swapOperator(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Binary
	eachExprPtr(m, func(ep *vlog.Expr) {
		if n, ok := (*ep).(*vlog.Binary); ok {
			if len(opSwaps[n.Op]) > 0 {
				sites = append(sites, n)
			}
		}
	})
	if len(sites) == 0 {
		return false
	}
	b := sites[rng.Intn(len(sites))]
	alts := opSwaps[b.Op]
	b.Op = alts[rng.Intn(len(alts))]
	return true
}

func negateCondition(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.If
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.If); ok {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	n := sites[rng.Intn(len(sites))]
	n.Cond = &vlog.Unary{Pos: n.Pos, Op: "!", X: n.Cond}
	return true
}

func reverseConcat(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Concat
	eachExprPtr(m, func(ep *vlog.Expr) {
		if n, ok := (*ep).(*vlog.Concat); ok && len(n.Parts) >= 2 {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	c := sites[rng.Intn(len(sites))]
	for l, r := 0, len(c.Parts)-1; l < r; l, r = l+1, r-1 {
		c.Parts[l], c.Parts[r] = c.Parts[r], c.Parts[l]
	}
	return true
}

func shiftSlice(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.RangeSel
	eachExprPtr(m, func(ep *vlog.Expr) {
		if n, ok := (*ep).(*vlog.RangeSel); ok {
			if msbN, ok1 := n.MSB.(*vlog.Number); ok1 {
				if lsbN, ok2 := n.LSB.(*vlog.Number); ok2 {
					mu, _ := msbN.Value.Uint64()
					lu, _ := lsbN.Value.Uint64()
					if lu > 0 && mu > lu {
						sites = append(sites, n)
					}
				}
			}
		}
	})
	if len(sites) == 0 {
		return false
	}
	n := sites[rng.Intn(len(sites))]
	msbN := n.MSB.(*vlog.Number)
	lsbN := n.LSB.(*vlog.Number)
	mu, _ := msbN.Value.Uint64()
	lu, _ := lsbN.Value.Uint64()
	n.MSB = numberNode(msbN.Pos, mu-1)
	n.LSB = numberNode(lsbN.Pos, lu-1)
	return true
}

func swapTernary(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Ternary
	eachExprPtr(m, func(ep *vlog.Expr) {
		if n, ok := (*ep).(*vlog.Ternary); ok {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	n := sites[rng.Intn(len(sites))]
	n.Then, n.Else = n.Else, n.Then
	return true
}

func dropCaseArm(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Case
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.Case); ok {
			nonDefault := 0
			for _, item := range n.Items {
				if item.Exprs != nil {
					nonDefault++
				}
			}
			if nonDefault >= 2 {
				sites = append(sites, n)
			}
		}
	})
	if len(sites) == 0 {
		return false
	}
	n := sites[rng.Intn(len(sites))]
	var idxs []int
	for i, item := range n.Items {
		if item.Exprs != nil {
			idxs = append(idxs, i)
		}
	}
	at := idxs[rng.Intn(len(idxs))]
	n.Items = append(n.Items[:at], n.Items[at+1:]...)
	return true
}

func wrongEdge(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.EventItem
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.EventCtrl); ok {
			for i := range n.Events {
				if n.Events[i].Edge != vlog.EdgeAny {
					sites = append(sites, &n.Events[i])
				}
			}
		}
	})
	if len(sites) == 0 {
		return false
	}
	ev := sites[rng.Intn(len(sites))]
	if ev.Edge == vlog.EdgePos {
		ev.Edge = vlog.EdgeNeg
	} else {
		ev.Edge = vlog.EdgePos
	}
	return true
}

func dropTerm(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Expr
	eachExprPtr(m, func(ep *vlog.Expr) {
		if _, ok := (*ep).(*vlog.Binary); ok {
			sites = append(sites, ep)
		}
	})
	if len(sites) == 0 {
		return false
	}
	ep := sites[rng.Intn(len(sites))]
	b := (*ep).(*vlog.Binary)
	if rng.Intn(2) == 0 {
		*ep = b.X
	} else {
		*ep = b.Y
	}
	return true
}

func negateRHS(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Assign
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.Assign); ok {
			sites = append(sites, n)
		}
	})
	for _, it := range m.Items {
		if ca, ok := it.(*vlog.ContAssign); ok {
			sites = append(sites, ca.Assigns...)
		}
	}
	if len(sites) == 0 {
		return false
	}
	a := sites[rng.Intn(len(sites))]
	a.RHS = &vlog.Unary{Pos: a.Pos, Op: "~", X: a.RHS}
	return true
}

func flipAssignKind(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Assign
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.Assign); ok {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	a := sites[rng.Intn(len(sites))]
	a.NonBlocking = !a.NonBlocking
	return true
}

func dropStatement(m *vlog.Module, rng *rand.Rand) bool {
	var sites []*vlog.Block
	eachStmt(m, func(s vlog.Stmt) {
		if n, ok := s.(*vlog.Block); ok && len(n.Stmts) >= 2 {
			sites = append(sites, n)
		}
	})
	if len(sites) == 0 {
		return false
	}
	b := sites[rng.Intn(len(sites))]
	at := rng.Intn(len(b.Stmts))
	b.Stmts = append(b.Stmts[:at], b.Stmts[at+1:]...)
	return true
}

// ---- small helpers ----------------------------------------------------------

func numberNode(pos vlog.Pos, v uint64) *vlog.Number {
	text := fmt.Sprintf("%d", v)
	val, _ := parseLit(text)
	return &vlog.Number{Pos: pos, Text: text, Value: val}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
