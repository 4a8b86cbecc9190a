package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// concurrencyHomes are the only places under internal/ whose non-test code
// may start goroutines or wait on a sync.WaitGroup: this package's index
// loop, the stage scheduler and the analysis service.
var concurrencyHomes = []string{"par/", "core/sched.go", "server/"}

// TestGoroutinesStayHome parses every non-test Go file under internal/ and
// fails on a go statement or a sync.WaitGroup outside concurrencyHomes, so
// how a stage spreads its items over workers stays decided in one place.
// Parsing, not grepping, keeps comments and strings from tripping it.
func TestGoroutinesStayHome(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator)))
		for _, home := range concurrencyHomes {
			if strings.HasPrefix(rel, home) {
				return nil
			}
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		syncName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement outside %v; use par.Do", fset.Position(n.Pos()), concurrencyHomes)
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && syncName != "" && x.Name == syncName && n.Sel.Name == "WaitGroup" {
					t.Errorf("%s: sync.WaitGroup outside %v; use par.Do", fset.Position(n.Pos()), concurrencyHomes)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Errorf("parsed only %d files under internal/", files)
	}
}
