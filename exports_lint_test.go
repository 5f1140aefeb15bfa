package lms

// Exports lint (DESIGN.md §14): every exported top-level name and every
// exported method declared in a non-test file under internal/ must have a
// caller. A caller is any non-test file of the module (cmd/, examples/ and
// the root included), any source of the bench/ module, or a test file of
// another package. A name only its own package's tests use belongs in an
// export_test.go file or unexported; a name nothing uses is deleted.
//
// The scan is syntactic: package-qualified names resolve through each
// file's imports, and methods match by selector name alone. A selector of
// the same name on an unrelated type counts as a use, so the lint can miss
// a dead method but never reports a live one.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "repro"

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

// srcFile is one parsed source file of the module or of bench/.
type srcFile struct {
	pkg   string // import path of its directory, e.g. "repro/internal/obs"
	test  bool
	ast   *ast.File
	decls []declUses
}

// declUses is what one top-level declaration of a file names.
type declUses struct {
	owns      map[string]bool // names it declares; for a method, its receiver type
	method    string          // "Recv.Name" of a method declaration, else ""
	bare      map[string]bool // identifiers not under a selector's selection
	selectors map[string]bool // selected names: x.Name
	qualified map[string]bool // "import/path.Name" through the file's imports
}

// exportedDecl is one exported name declared under internal/.
type exportedDecl struct {
	pkg, name, recv string // recv is a method's receiver type, else ""
	pos             token.Position
}

// TestExportsUsed fails when an exported name under internal/ has no
// caller. Run by CI as the exports lint step.
func TestExportsUsed(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []srcFile
	walk := func(dir, modPath, skip string) {
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); p != dir && (name == skip || name == "testdata" || strings.HasPrefix(name, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkg := modPath
			if rel != "." {
				pkg += "/" + filepath.ToSlash(rel)
			}
			files = append(files, srcFile{pkg: pkg, test: strings.HasSuffix(p, "_test.go"), ast: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk(root, modulePath, "bench")
	walk(filepath.Join(root, "bench"), modulePath+"/bench", "")

	pkgNames := map[string]string{} // import path -> package clause name
	for _, f := range files {
		if !f.test {
			pkgNames[f.pkg] = f.ast.Name.Name
		}
	}
	var decls []exportedDecl
	for i, f := range files {
		files[i].decls = indexDecls(f.ast, pkgNames)
		if !f.test && strings.HasPrefix(f.pkg, modulePath+"/internal/") {
			decls = append(decls, exportedDecls(fset, f.pkg, f.ast)...)
		}
	}

	var dead []string
	for _, d := range decls {
		if _, ok := implicitMethods[d.name]; ok && d.recv != "" {
			continue
		}
		if !hasCaller(files, d) {
			name := path.Base(d.pkg) + "." + d.name
			if d.recv != "" {
				name = path.Base(d.pkg) + "." + d.recv + "." + d.name
			}
			rel, _ := filepath.Rel(root, d.pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, d.pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside its own package's tests", d)
	}
}

// declared returns the names a top-level declaration declares and, for a
// method, its receiver type's name.
func declared(decl ast.Decl) (names []*ast.Ident, recv string) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			recv = recvType(d)
		}
		return []*ast.Ident{d.Name}, recv
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name)
			case *ast.ValueSpec:
				names = append(names, s.Names...)
			}
		}
	}
	return names, ""
}

// exportedDecls lists the exported top-level names of f and the exported
// methods of its exported types.
func exportedDecls(fset *token.FileSet, pkg string, f *ast.File) []exportedDecl {
	var out []exportedDecl
	for _, decl := range f.Decls {
		names, recv := declared(decl)
		if recv != "" && !ast.IsExported(recv) {
			continue
		}
		for _, id := range names {
			if id.IsExported() {
				out = append(out, exportedDecl{pkg: pkg, name: id.Name, recv: recv, pos: fset.Position(id.Pos())})
			}
		}
	}
	return out
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

// indexDecls records what each top-level declaration of f names.
func indexDecls(f *ast.File, pkgNames map[string]string) []declUses {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path.Base(p)
		if name, ok := pkgNames[p]; ok {
			local = name
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	var out []declUses
	for _, decl := range f.Decls {
		u := declUses{owns: map[string]bool{}, bare: map[string]bool{}, selectors: map[string]bool{}, qualified: map[string]bool{}}
		names, recv := declared(decl)
		if recv != "" {
			u.owns[recv] = true
			u.method = recv + "." + names[0].Name
		} else {
			for _, id := range names {
				u.owns[id.Name] = true
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				u.selectors[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						u.qualified[p+"."+x.Sel.Name] = true
					}
				}
				ast.Inspect(x.X, visit) // x.Sel is not a bare name
				return false
			case *ast.Field: // its names declare, its type refers
				ast.Inspect(x.Type, visit)
				return false
			case *ast.Ident:
				u.bare[x.Name] = true
			}
			return true
		}
		if fd, ok := decl.(*ast.FuncDecl); ok {
			// A function's own name is no use of it, nor of a namesake.
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
		} else {
			ast.Inspect(decl, visit)
		}
		out = append(out, u)
	}
	return out
}

// hasCaller reports whether a caller names d. Any non-test file counts,
// and a test file of another package; a package's own test files do not.
// A top-level name counts when qualified through an import of its package,
// or bare in a non-test file of its package outside its own declaration
// and methods. A method counts when a selector names it anywhere but in
// its own declaration.
func hasCaller(files []srcFile, d exportedDecl) bool {
	for _, f := range files {
		if f.test && f.pkg == d.pkg {
			continue
		}
		for _, u := range f.decls {
			if d.recv != "" {
				if u.selectors[d.name] && !(f.pkg == d.pkg && u.method == d.recv+"."+d.name) {
					return true
				}
				continue
			}
			if u.qualified[d.pkg+"."+d.name] || (f.pkg == d.pkg && !u.owns[d.name] && u.bare[d.name]) {
				return true
			}
		}
	}
	return false
}
