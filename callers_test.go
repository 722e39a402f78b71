package rottnest_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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

// TestOneWorldClock keeps the world clock in one place, the object
// store (objectstore.ClockOf): tables, clients, writers, schedulers,
// routers and the autopilot all read time from their table's store.
// It parses every Go file of the module and of benchmark/, tests
// included, and fails on
//   - an exported struct field of type simtime.Clock outside
//     internal/simtime: an option that lets a caller name a second
//     clock. adaptive.LedgerOptions.Clock is exempt: a ledger is built
//     before any client or store, and its clock only decays its heat;
//   - a struct type that embeds objectstore.Store with no Clock method
//     in its package: the embedding hides the inner store's clock, so
//     a table over the wrapper would silently run on the real clock;
//   - a struct type that holds an objectstore.Store in a named field
//     and gets GetRange and PutIfAbsent methods from its package — a
//     store wrapper — with no Clock method, for the same reason.
//     benchmark's delayStore is exempt: it wraps a directory store,
//     which is on the real clock anyway.
func TestOneWorldClock(t *testing.T) {
	const (
		objectstorePath = "rottnest/internal/objectstore"
		simtimePath     = "rottnest/internal/simtime"
	)
	exempt := map[string]bool{
		"internal/adaptive.LedgerOptions.Clock": true,
		"benchmark.delayStore":                  true,
	}
	type typeKey struct{ pkg, name string }  // pkg: directory plus package clause
	embeds := map[typeKey]string{}           // type embedding a Store → its position
	holds := map[typeKey]string{}            // type holding a Store in a named field → its position
	methods := map[typeKey]map[string]bool{} // type → its Clock, GetRange and PutIfAbsent methods
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		self := path.Join("rottnest", dir)
		pkg := dir + ":" + f.Name.Name
		// names maps each import's local name to its path, so
		// isType(e, path, name) resolves a qualified type however the
		// file imports its package.
		names := map[string]string{}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			local := path.Base(imp)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			names[local] = imp
		}
		isType := func(e ast.Expr, pkgPath, name string) bool {
			switch e := e.(type) {
			case *ast.Ident:
				return self == pkgPath && e.Name == name
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				return ok && names[x.Name] == pkgPath && e.Sel.Name == name
			}
			return false
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if name := decl.Name.Name; decl.Recv != nil && (name == "Clock" || name == "GetRange" || name == "PutIfAbsent") {
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						k := typeKey{pkg, id.Name}
						if methods[k] == nil {
							methods[k] = map[string]bool{}
						}
						methods[k][name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						// The facade re-exports both types under the same names.
						isStore := isType(field.Type, objectstorePath, "Store") || isType(field.Type, "rottnest", "Store")
						isClock := isType(field.Type, simtimePath, "Clock") || isType(field.Type, "rottnest", "Clock")
						if isStore && !exempt[dir+"."+ts.Name.Name] {
							if len(field.Names) == 0 {
								embeds[typeKey{pkg, ts.Name.Name}] = fset.Position(field.Pos()).String()
							} else {
								holds[typeKey{pkg, ts.Name.Name}] = fset.Position(field.Pos()).String()
							}
						}
						if self == simtimePath || !isClock {
							continue
						}
						for _, name := range field.Names {
							id := dir + "." + ts.Name.Name + "." + name.Name
							if name.IsExported() && !exempt[id] {
								t.Errorf("%s: exported field %s names a clock beside its store's (objectstore.ClockOf)", fset.Position(name.Pos()), id)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(embeds) == 0 {
		t.Fatal("found no struct embedding objectstore.Store")
	}
	var missing []string
	for k, pos := range embeds {
		if !methods[k]["Clock"] {
			missing = append(missing, pos+": "+k.name+" embeds objectstore.Store")
		}
	}
	wrappers := 0
	for k, pos := range holds {
		if m := methods[k]; m["GetRange"] && m["PutIfAbsent"] {
			wrappers++
			if !m["Clock"] {
				missing = append(missing, pos+": "+k.name+" wraps an objectstore.Store")
			}
		}
	}
	if wrappers == 0 {
		t.Fatal("found no store wrapper holding objectstore.Store in a named field")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s but has no Clock method forwarding its inner store's (objectstore.ClockOf)", m)
	}
}
