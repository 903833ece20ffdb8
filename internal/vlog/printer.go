package vlog

import (
	"fmt"
	"strings"
)

// Print renders a source file back to canonical Verilog text.
func Print(f *SourceFile) string {
	var sb strings.Builder
	for i, m := range f.Modules {
		if i > 0 {
			sb.WriteString("\n")
		}
		printModule(&sb, m)
	}
	return sb.String()
}

// PrintItems renders a sequence of module items (used to extract the
// behavioural tail of a module as a prompt completion).
func PrintItems(items []Item) string {
	var sb strings.Builder
	for _, it := range items {
		printItem(&sb, it)
	}
	return sb.String()
}

func printModule(sb *strings.Builder, m *Module) {
	// Split items into header port decls (ANSI) vs body items. We print in
	// ANSI style when the module has PortDecl items whose names cover
	// PortNames; otherwise we print the name list header.
	fmt.Fprintf(sb, "module %s", m.Name)

	var headerDecls []*PortDecl
	var body []Item
	covered := map[string]bool{}
	for _, it := range m.Items {
		if pd, ok := it.(*PortDecl); ok {
			headerDecls = append(headerDecls, pd)
			for _, n := range pd.Names {
				covered[n.Name] = true
			}
			continue
		}
		body = append(body, it)
	}
	ansi := len(m.PortNames) > 0
	for _, n := range m.PortNames {
		if !covered[n] {
			ansi = false
		}
	}
	if ansi && len(headerDecls) > 0 {
		sb.WriteString(" (")
		for i, pd := range headerDecls {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(pd.Dir.String())
			if pd.IsReg {
				sb.WriteString(" reg")
			}
			if pd.Signed {
				sb.WriteString(" signed")
			}
			if pd.Range != nil {
				sb.WriteString(" ")
				printRange(sb, pd.Range)
			}
			for j, n := range pd.Names {
				if j > 0 {
					sb.WriteString(", ")
				} else {
					sb.WriteString(" ")
				}
				sb.WriteString(n.Name)
			}
		}
		sb.WriteString(");\n")
	} else {
		if len(m.PortNames) > 0 {
			fmt.Fprintf(sb, " (%s)", strings.Join(m.PortNames, ", "))
		}
		sb.WriteString(";\n")
		// non-ANSI: port decls are printed in the body with everything else
		body = m.Items
	}
	for _, it := range body {
		printItem(sb, it)
	}
	sb.WriteString("endmodule\n")
}

func printRange(sb *strings.Builder, r *RangeSpec) {
	sb.WriteString("[")
	printExpr(sb, r.MSB)
	sb.WriteString(":")
	printExpr(sb, r.LSB)
	sb.WriteString("]")
}

func printItem(sb *strings.Builder, it Item) {
	switch n := it.(type) {
	case *PortDecl:
		sb.WriteString("  ")
		sb.WriteString(n.Dir.String())
		if n.IsReg {
			sb.WriteString(" reg")
		}
		if n.Signed {
			sb.WriteString(" signed")
		}
		if n.Range != nil {
			sb.WriteString(" ")
			printRange(sb, n.Range)
		}
		var names []string
		for _, d := range n.Names {
			names = append(names, d.Name)
		}
		fmt.Fprintf(sb, " %s;\n", strings.Join(names, ", "))
	case *NetDecl:
		sb.WriteString("  ")
		sb.WriteString(n.Kind.String())
		if n.Signed {
			sb.WriteString(" signed")
		}
		if n.Range != nil {
			sb.WriteString(" ")
			printRange(sb, n.Range)
		}
		sb.WriteString(" ")
		for i, d := range n.Names {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(d.Name)
			if d.ArrayRange != nil {
				sb.WriteString(" ")
				printRange(sb, d.ArrayRange)
			}
			if d.Init != nil {
				sb.WriteString(" = ")
				printExpr(sb, d.Init)
			}
		}
		sb.WriteString(";\n")
	case *ParamDecl:
		sb.WriteString("  ")
		if n.Local {
			sb.WriteString("localparam ")
		} else {
			sb.WriteString("parameter ")
		}
		for i, pa := range n.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%s = ", pa.Name)
			printExpr(sb, pa.Value)
		}
		sb.WriteString(";\n")
	case *ContAssign:
		for _, a := range n.Assigns {
			sb.WriteString("  assign ")
			printExpr(sb, a.LHS)
			sb.WriteString(" = ")
			printExpr(sb, a.RHS)
			sb.WriteString(";\n")
		}
	case *AlwaysBlock:
		sb.WriteString("  always ")
		printStmt(sb, n.Body, 1)
		sb.WriteString("\n")
	case *InitialBlock:
		sb.WriteString("  initial ")
		printStmt(sb, n.Body, 1)
		sb.WriteString("\n")
	case *Instance:
		fmt.Fprintf(sb, "  %s", n.Module)
		if len(n.Params) > 0 {
			sb.WriteString(" #(")
			printConns(sb, n.Params)
			sb.WriteString(")")
		}
		fmt.Fprintf(sb, " %s (", n.Name)
		printConns(sb, n.Conns)
		sb.WriteString(");\n")
	}
}

func printConns(sb *strings.Builder, conns []PortConn) {
	for i, c := range conns {
		if i > 0 {
			sb.WriteString(", ")
		}
		if c.Name != "" {
			fmt.Fprintf(sb, ".%s(", c.Name)
			if c.Expr != nil {
				printExpr(sb, c.Expr)
			}
			sb.WriteString(")")
		} else {
			printExpr(sb, c.Expr)
		}
	}
}

func ind(sb *strings.Builder, level int) {
	for i := 0; i < level; i++ {
		sb.WriteString("  ")
	}
}

// printStmt prints s; the caller has already emitted indentation or an
// inline prefix for the first line.
func printStmt(sb *strings.Builder, s Stmt, level int) {
	switch n := s.(type) {
	case nil:
		sb.WriteString(";")
	case *Null:
		sb.WriteString(";")
	case *Block:
		sb.WriteString("begin")
		if n.Name != "" {
			fmt.Fprintf(sb, " : %s", n.Name)
		}
		sb.WriteString("\n")
		for _, st := range n.Stmts {
			ind(sb, level+1)
			printStmt(sb, st, level+1)
			sb.WriteString("\n")
		}
		ind(sb, level)
		sb.WriteString("end")
	case *Assign:
		printExpr(sb, n.LHS)
		if n.NonBlocking {
			sb.WriteString(" <= ")
		} else {
			sb.WriteString(" = ")
		}
		printExpr(sb, n.RHS)
		sb.WriteString(";")
	case *If:
		sb.WriteString("if (")
		printExpr(sb, n.Cond)
		sb.WriteString(") ")
		printStmt(sb, n.Then, level)
		if n.Else != nil {
			sb.WriteString("\n")
			ind(sb, level)
			sb.WriteString("else ")
			printStmt(sb, n.Else, level)
		}
	case *Case:
		switch n.Kind {
		case CaseZ:
			sb.WriteString("casez (")
		case CaseX:
			sb.WriteString("casex (")
		default:
			sb.WriteString("case (")
		}
		printExpr(sb, n.Expr)
		sb.WriteString(")\n")
		for _, item := range n.Items {
			ind(sb, level+1)
			if item.Exprs == nil {
				sb.WriteString("default: ")
			} else {
				for i, e := range item.Exprs {
					if i > 0 {
						sb.WriteString(", ")
					}
					printExpr(sb, e)
				}
				sb.WriteString(": ")
			}
			printStmt(sb, item.Body, level+1)
			sb.WriteString("\n")
		}
		ind(sb, level)
		sb.WriteString("endcase")
	case *For:
		sb.WriteString("for (")
		printExpr(sb, n.Init.LHS)
		sb.WriteString(" = ")
		printExpr(sb, n.Init.RHS)
		sb.WriteString("; ")
		printExpr(sb, n.Cond)
		sb.WriteString("; ")
		printExpr(sb, n.Step.LHS)
		sb.WriteString(" = ")
		printExpr(sb, n.Step.RHS)
		sb.WriteString(") ")
		printStmt(sb, n.Body, level)
	case *While:
		sb.WriteString("while (")
		printExpr(sb, n.Cond)
		sb.WriteString(") ")
		printStmt(sb, n.Body, level)
	case *Repeat:
		sb.WriteString("repeat (")
		printExpr(sb, n.Count)
		sb.WriteString(") ")
		printStmt(sb, n.Body, level)
	case *Forever:
		sb.WriteString("forever ")
		printStmt(sb, n.Body, level)
	case *Delay:
		sb.WriteString("#")
		printExpr(sb, n.Amount)
		sb.WriteString(" ")
		printStmt(sb, n.Stmt, level)
	case *EventCtrl:
		if n.Star {
			sb.WriteString("@(*) ")
		} else {
			sb.WriteString("@(")
			for i, ev := range n.Events {
				if i > 0 {
					sb.WriteString(" or ")
				}
				switch ev.Edge {
				case EdgePos:
					sb.WriteString("posedge ")
				case EdgeNeg:
					sb.WriteString("negedge ")
				}
				printExpr(sb, ev.X)
			}
			sb.WriteString(") ")
		}
		printStmt(sb, n.Stmt, level)
	case *Wait:
		sb.WriteString("wait (")
		printExpr(sb, n.Cond)
		sb.WriteString(") ")
		printStmt(sb, n.Stmt, level)
	case *SysCall:
		sb.WriteString(n.Name)
		if len(n.Args) > 0 {
			sb.WriteString("(")
			for i, a := range n.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, a)
			}
			sb.WriteString(")")
		}
		sb.WriteString(";")
	default:
		fmt.Fprintf(sb, "/* unknown stmt %T */;", s)
	}
}

func printExpr(sb *strings.Builder, e Expr) {
	switch n := e.(type) {
	case *Ident:
		sb.WriteString(n.Name)
	case *Number:
		sb.WriteString(n.Text)
	case *Str:
		fmt.Fprintf(sb, "%q", n.Text)
	case *Unary:
		sb.WriteString(n.Op)
		if _, ok := n.X.(*Binary); ok {
			sb.WriteString("(")
			printExpr(sb, n.X)
			sb.WriteString(")")
		} else {
			printExpr(sb, n.X)
		}
	case *Binary:
		printChild(sb, n.X)
		fmt.Fprintf(sb, " %s ", n.Op)
		printChild(sb, n.Y)
	case *Ternary:
		printChild(sb, n.Cond)
		sb.WriteString(" ? ")
		printChild(sb, n.Then)
		sb.WriteString(" : ")
		printChild(sb, n.Else)
	case *Concat:
		sb.WriteString("{")
		for i, part := range n.Parts {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, part)
		}
		sb.WriteString("}")
	case *Repl:
		sb.WriteString("{")
		printExpr(sb, n.Count)
		sb.WriteString("{")
		printExpr(sb, n.X)
		sb.WriteString("}}")
	case *Index:
		printExpr(sb, n.X)
		sb.WriteString("[")
		printExpr(sb, n.I)
		sb.WriteString("]")
	case *RangeSel:
		printExpr(sb, n.X)
		sb.WriteString("[")
		printExpr(sb, n.MSB)
		sb.WriteString(":")
		printExpr(sb, n.LSB)
		sb.WriteString("]")
	case *SysCallExpr:
		sb.WriteString(n.Name)
		if len(n.Args) > 0 {
			sb.WriteString("(")
			for i, a := range n.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, a)
			}
			sb.WriteString(")")
		}
	default:
		fmt.Fprintf(sb, "/* unknown expr %T */", e)
	}
}

// printChild parenthesizes composite operands so reprinted source preserves
// evaluation order regardless of the original precedence context.
func printChild(sb *strings.Builder, e Expr) {
	switch e.(type) {
	case *Binary, *Ternary:
		sb.WriteString("(")
		printExpr(sb, e)
		sb.WriteString(")")
	default:
		printExpr(sb, e)
	}
}
