package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestRunChargesNoStaticEvent is the structural half of "events are a
// property of the program": (*Instance).run counts region entries at
// one site, the region label — one visit increment — and never reads
// the program's event table, whose prices drain applies later. Its
// source may name an arch event in an Add call only for a charge that
// depends on the run — today the BTB flush of a host crossing — and
// may call drain only at the host crossing, where the host may read the
// counter. A hand-written charge for what an opcode always costs fails
// here.
func TestRunChargesNoStaticEvent(t *testing.T) {
	allowed := map[string]bool{"EvBTBFlush": true}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "frame.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var run *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "run" && fd.Recv != nil {
			run = fd
		}
	}
	if run == nil {
		t.Fatal("frame.go has no method run")
	}
	isVisit := func(x ast.Expr) bool {
		ix, ok := x.(*ast.IndexExpr)
		if !ok {
			return false
		}
		switch v := ix.X.(type) {
		case *ast.Ident:
			return v.Name == "visits"
		case *ast.SelectorExpr:
			return v.Sel.Name == "visits"
		}
		return false
	}
	visits, atLabel, drains := 0, 0, 0
	ast.Inspect(run.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.LabeledStmt:
			if n.Label.Name == "region" {
				ast.Inspect(n.Stmt, func(m ast.Node) bool {
					if inc, ok := m.(*ast.IncDecStmt); ok && inc.Tok == token.INC && isVisit(inc.X) {
						atLabel++
					}
					return true
				})
			}
		case *ast.IncDecStmt:
			if isVisit(n.X) {
				visits++
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isVisit(lhs) {
					t.Errorf("%v: run assigns a visit count", fset.Position(n.Pos()))
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Charges" || n.Sel.Name == "Unrun" {
				t.Errorf("%v: run reads the program's event table (%s)", fset.Position(n.Pos()), n.Sel.Name)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "drain" {
				drains++
			}
			if sel.Sel.Name != "Add" || len(n.Args) == 0 {
				return true
			}
			ev, ok := n.Args[0].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := ev.X.(*ast.Ident); ok && pkg.Name == "arch" && !allowed[ev.Sel.Name] {
				t.Errorf("%v: run charges arch.%s by hand", fset.Position(n.Pos()), ev.Sel.Name)
			}
		}
		return true
	})
	if visits != 1 || atLabel != 1 {
		t.Errorf("run increments a visit count at %d sites, %d of them at the region label; want exactly the one at the label",
			visits, atLabel)
	}
	if drains != 1 {
		t.Errorf("run drains at %d sites, want the one host crossing", drains)
	}
}
