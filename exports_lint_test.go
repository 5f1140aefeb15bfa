package lms

// Exports lint (DESIGN.md §14): every exported top-level name and every
// exported method declared in a non-test file under internal/ must have a
// caller. A caller is any non-test file of the module (cmd/, examples/ and
// the root included), any source of the bench/ module, or a test file of
// another package. A name only its own package's tests use belongs in an
// export_test.go file or unexported; a name nothing uses is deleted.
//
// The scan is type-checked: every package of the module and of bench/,
// test files included, is checked by go/types against the export data
// `go list -export -deps -test` reports, so each identifier resolves to the
// object it names. A method is used where it is selected on its own type
// (directly, promoted through embedding, or as a method expression), or
// where an interface method it implements is selected: a call through an
// interface reaches every type that satisfies it.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names a standard-library interface calls
// without naming them in this module's source: a method of one of these
// names counts as used even when no selector names it.
var implicitMethods = map[string]string{
	"String":        "fmt.Stringer, called by the fmt verbs",
	"Error":         "the error interface",
	"Unwrap":        "errors.Is and errors.As walk the chain through it",
	"ServeHTTP":     "http.Handler, called by net/http",
	"RoundTrip":     "http.RoundTripper, called by http.Client",
	"MarshalJSON":   "json.Marshaler, called by encoding/json",
	"UnmarshalJSON": "json.Unmarshaler, called by encoding/json",
	"Len":           "sort.Interface and heap.Interface",
	"Less":          "sort.Interface and heap.Interface",
	"Swap":          "sort.Interface and heap.Interface",
	"Push":          "heap.Interface, called by container/heap",
	"Pop":           "heap.Interface, called by container/heap",
	"Read":          "io.Reader, called by io.Copy and friends",
	"Write":         "io.Writer, called by fmt.Fprintf and friends",
	"Close":         "io.Closer, called through io.ReadCloser and friends",
}

// TestExportsUsed fails when an exported name under internal/ has no
// caller. Run by CI as the exports lint step.
func TestExportsUsed(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deadExports(t, root, filepath.Join(root, "bench")) {
		t.Errorf("%s has no caller outside its own package's tests", d)
	}
}

// TestExportsLintResolvesMethodsByType runs the lint over a fixture
// module: a method reached only through an interface is live, and a dead
// method is reported although a live method of another type shares its
// name.
func TestExportsLintResolvesMethodsByType(t *testing.T) {
	got := deadExports(t, filepath.Join("testdata", "exportslint"))
	want := []string{"internal/shape/shape.go:19: shape.Square.Stats"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dead exports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// listedPkg is one package of `go list -json -export -deps -test`.
type listedPkg struct {
	ImportPath string // "p", "p [q.test]" (p compiled for q's test) or "q.test"
	ForTest    string
	Dir        string
	Export     string
	GoFiles    []string // a test variant's include its test files
	Module     *struct {
		Path string
		Main bool
	}
}

// bare strips the " [q.test]" suffix of a test variant's ImportPath.
func (p *listedPkg) bare() string {
	bare, _, _ := strings.Cut(p.ImportPath, " ")
	return bare
}

// ifaceUse is an interface method selected somewhere: it reaches the
// method of that name of every type implementing the interface.
type ifaceUse struct {
	method string
	sigs   map[string]string // the interface's method name -> signature
	ownPkg string            // selected in this package's tests; "" outside tests
}

// methodInfo is one entry of a named type's pointer method set: the
// method's signature, its key, and the path of its package.
type methodInfo struct{ sig, key, pkg string }

// deadExports lists the exported names declared in non-test files under
// the internal/ directory of the module at dirs[0] that no caller in any
// of dirs' modules uses, as "file:line: pkg[.Recv].Name" relative to
// dirs[0], sorted.
func deadExports(t *testing.T, dirs ...string) []string {
	t.Helper()
	base, err := filepath.Abs(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := map[string]bool{} // "pkg.Name" and "pkg.Recv.Name" keys
	ifaces := map[string]ifaceUse{}
	methodSets := map[string]map[string]methodInfo{} // "pkg.Type" -> pointer method set
	var decls []decl
	internal := ""
	for i, dir := range dirs {
		pkgs := goList(t, dir)
		byPath := map[string]*listedPkg{}
		recompiled := map[string]bool{} // q: some package is compiled for q's test
		for _, p := range pkgs {
			byPath[p.ImportPath] = p
			if p.ForTest != "" && p.bare() != p.ForTest && p.bare() != p.ForTest+"_test" {
				recompiled[p.ForTest] = true
			}
		}
		importers := map[string]types.Importer{}
		importerFor := func(forTest string) types.Importer {
			if !recompiled[forTest] {
				forTest = ""
			}
			if imp, ok := importers[forTest]; ok {
				return imp
			}
			imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
				p := byPath[path+" ["+forTest+".test]"]
				if p == nil {
					p = byPath[path]
				}
				if p == nil || p.Export == "" {
					return nil, fmt.Errorf("no export data for %s", path)
				}
				return os.Open(p.Export)
			})
			importers[forTest] = imp
			return imp
		}
		for _, p := range pkgs {
			if p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test") {
				continue
			}
			if i == 0 {
				internal = p.Module.Path + "/internal/"
			}
			bare := p.bare()
			own := bare // whose tests this unit's test files are
			switch {
			case p.ForTest == "":
				if byPath[bare+" ["+bare+".test]"] != nil {
					continue // its test variant holds the same files
				}
			case bare == p.ForTest || bare == p.ForTest+"_test":
				own = p.ForTest
			default:
				continue // recompiled for another package's test
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: importerFor(p.ForTest)}
			pkg, err := conf.Check(bare, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}

			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
					continue
				}
				mset := types.NewMethodSet(types.NewPointer(tn.Type()))
				ms := map[string]methodInfo{}
				for i := 0; i < mset.Len(); i++ {
					fn := mset.At(i).Obj().(*types.Func)
					m := methodInfo{sig: sigString(fn)}
					if key, ok := methodKey(fn); ok { // not promoted from an embedded interface
						m.key, m.pkg = key, fn.Pkg().Path()
					}
					ms[fn.Name()] = m
				}
				methodSets[objKey(tn)] = ms
			}

			for _, f := range files {
				test := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
				ownPkg := ""
				if test {
					ownPkg = own
				}
				for _, d := range f.Decls {
					names, owns := declared(pkg, d)
					if !test && strings.HasPrefix(bare, internal) {
						for _, n := range names {
							if n.obj.Exported() && (n.recv == "" || ast.IsExported(n.recv)) {
								decls = append(decls, n)
							}
						}
					}
					ast.Inspect(d, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := info.Uses[id]
						if obj == nil || obj.Pkg() == nil {
							return true
						}
						if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
							key, concrete := methodKey(fn)
							if !concrete {
								recordIface(ifaces, fn, ownPkg)
								return true
							}
							if !owned(owns, key) && fn.Pkg().Path() != ownPkg {
								used[key] = true
							}
							return true
						}
						if obj.Pkg().Scope().Lookup(obj.Name()) == obj {
							key := objKey(obj)
							if !owned(owns, key) && obj.Pkg().Path() != ownPkg {
								used[key] = true
							}
						}
						return true
					})
				}
			}
		}
	}

	for _, use := range ifaces {
	types:
		for _, ms := range methodSets {
			m, ok := ms[use.method]
			if !ok || m.key == "" || used[m.key] || m.pkg == use.ownPkg {
				continue
			}
			for name, sig := range use.sigs {
				if ms[name].sig != sig {
					continue types
				}
			}
			used[m.key] = true
		}
	}

	var dead []string
	for _, d := range decls {
		if _, ok := implicitMethods[d.obj.Name()]; (ok && d.recv != "") || used[d.key] {
			continue
		}
		pos := fset.Position(d.obj.Pos())
		rel, _ := filepath.Rel(base, pos.Filename)
		name := path.Base(d.obj.Pkg().Path()) + strings.TrimPrefix(d.key, d.obj.Pkg().Path())
		dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, name))
	}
	sort.Strings(dead)
	return dead
}

// goList runs `go list -export -deps -test` over the module at dir.
func goList(t *testing.T, dir string) []*listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-test",
		"-json=ImportPath,ForTest,Dir,Export,GoFiles,Module", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(out)
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	return pkgs
}

// decl is one name a top-level declaration declares.
type decl struct {
	obj  types.Object
	key  string // objKey, or methodKey for a method
	recv string // a method's receiver type, else ""
}

// declared lists the names a top-level declaration declares, and the
// keys it owns: those, plus a method's receiver type — a type's own
// methods are no use of it, nor is a function's own body a use of it.
func declared(pkg *types.Package, d ast.Decl) (names []decl, owns []string) {
	add := func(name string) {
		if obj := pkg.Scope().Lookup(name); obj != nil {
			names = append(names, decl{obj: obj, key: objKey(obj)})
			owns = append(owns, objKey(obj))
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			add(d.Name.Name)
			break
		}
		tn, ok := pkg.Scope().Lookup(recvType(d)).(*types.TypeName)
		if !ok {
			break
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, d.Name.Name)
		if fn, ok := obj.(*types.Func); ok {
			key, _ := methodKey(fn)
			names = append(names, decl{obj: fn, key: key, recv: tn.Name()})
			owns = append(owns, key, objKey(tn))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name.Name)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id.Name)
				}
			}
		}
	}
	return names, owns
}

func owned(owns []string, key string) bool {
	for _, k := range owns {
		if k == key {
			return true
		}
	}
	return false
}

// recvType is the name of a method's receiver type.
func recvType(d *ast.FuncDecl) string {
	e := d.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// objKey identifies a package-level object across type-checking runs.
func objKey(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }

// methodKey identifies a concrete method as "pkg.Recv.Name"; ok is false
// for an interface's method and for a function.
func methodKey(fn *types.Func) (key string, ok bool) {
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || types.IsInterface(named) {
		return "", false
	}
	return objKey(named.Origin().Obj()) + "." + fn.Name(), true
}

// sigString renders a method's signature without parameter names and
// with full package paths, so signatures from separate type-checking runs
// compare as strings.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return types.TypeString(bare, (*types.Package).Path)
}

// recordIface notes the selection of an interface method.
func recordIface(ifaces map[string]ifaceUse, fn *types.Func, ownPkg string) {
	iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	use := ifaceUse{method: fn.Name(), sigs: map[string]string{}, ownPkg: ownPkg}
	var key strings.Builder
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		use.sigs[m.Name()] = sigString(m)
		fmt.Fprintf(&key, "%s%s;", m.Name(), use.sigs[m.Name()])
	}
	fmt.Fprintf(&key, "|%s|%s", fn.Name(), ownPkg)
	ifaces[key.String()] = use
}
