package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestRunChargesNoStaticEvent is the structural half of "events are a
// property of the program": (*Instance).run charges the timing model's
// static events only through the region table (ir.BuildCharges), so
// its source may name an arch event in an Add call only for a charge
// that depends on the run — today the BTB flush of a host crossing. A
// hand-written charge for what an opcode always costs fails here.
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
	regions := 0
	ast.Inspect(run.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Name == "charges" {
				regions++
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Add" || len(n.Args) == 0 {
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
	if regions != 1 {
		t.Errorf("run reads the region table at %d sites, want the one region label", regions)
	}
}
