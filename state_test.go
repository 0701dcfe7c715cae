package hetmem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoProcessWideState: the serving packages keep no mutable state at
// package level, so two daemons, or a daemon and a router, in one
// process share nothing. A package-level var passes when it is a
// sync.Pool, an error, a constant table (an array, slice or map
// literal), a compile-time interface assertion or a RetryPolicy value;
// any other must be named in allowed, with the reason it is safe.
func TestNoProcessWideState(t *testing.T) {
	allowed := map[string]string{
		"server.latencyBounds":      "the latency buckets' le labels: filled once by init, read-only after",
		"server.journalBatchBounds": "the journal batch buckets' le labels: filled once by init, read-only after",
		"server.aLongTimeAgo":       "a fixed past deadline that fails a connection's pending read; never written",
		"memsim.noCounters":         "the zero counters every untouched buffer reads; never written",
		"journal.Magic":             "the journal files' magic bytes; never written",
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range []string{"server", "cluster", "alloc", "wire", "journal", "tenant", "memsim"} {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						var value ast.Expr
						if i < len(vs.Values) {
							value = vs.Values[i]
						}
						key := pkg + "." + name.Name
						if _, ok := allowed[key]; ok {
							seen[key] = true
							continue
						}
						if !stateless(name.Name, vs.Type, value) {
							t.Errorf("%s: package-level var %s is process-wide state", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allow-list names %s, which no longer exists", key)
		}
	}
}

// stateless reports whether a package-level var declared with type typ
// and initial value is one of the kinds TestNoProcessWideState passes.
func stateless(name string, typ, value ast.Expr) bool {
	if name == "_" {
		return true // a compile-time interface assertion
	}
	if lit, ok := value.(*ast.CompositeLit); ok && typ == nil {
		typ = lit.Type
		switch typ.(type) {
		case *ast.ArrayType, *ast.MapType:
			return true // a constant table
		}
	}
	if sel, ok := typ.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" && sel.Sel.Name == "Pool" {
			return true
		}
	}
	if id, ok := typ.(*ast.Ident); ok && id.Name == "RetryPolicy" && value != nil {
		return true
	}
	_, call := value.(*ast.CallExpr)
	return call && (strings.HasPrefix(name, "Err") || strings.HasPrefix(name, "err"))
}
