package rottnest_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesHaveCallers keeps the module caller-complete:
// every internal package must be imported by some non-test file
// outside it, in this module or in the benchmark module under
// benchmark/. A package only its own tests run is code no program
// runs. internal/harness is exempt: it is test infrastructure, driven
// by its own tests.
func TestInternalPackagesHaveCallers(t *testing.T) {
	exempt := map[string]bool{"rottnest/internal/harness": true}
	packages := map[string]bool{} // internal packages with non-test files
	imported := map[string]bool{} // imported by some non-test file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		self := path.Join("rottnest", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(self, "rottnest/internal/") {
			packages[self] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imported[imp] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no internal packages")
	}
	for pkg := range packages {
		if !imported[pkg] && !exempt[pkg] {
			t.Errorf("%s: no non-test file outside the package imports it", pkg)
		}
	}
}
