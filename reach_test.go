package ffis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the production declarations the guard accepts
// although no program reaches them, as "pkgpath.Func", "pkgpath.Type.Method"
// or "pkgpath.Type.Field". Each entry is a reference or fixture that tests in
// several packages share; keep the list at four entries or fewer.
var reachAllowlist = map[string]string{
	// The whole-file QMCA analysis: the reference AnalyzeDMC is tested
	// against bit for bit.
	"ffis/internal/apps/qmcpack.Analyze": "reference for AnalyzeDMC",
	// Golden-tree snapshots in the core, experiments and vfs tests.
	"ffis/internal/vfs.Walk": "file-tree walk shared by tests",
	// Float32 plotfiles in the hdf5 and metainject tests.
	"ffis/internal/hdf5.IEEE754Single": "float32 codec fixture",
	// The whole-file halo finder: the reference nyx.App.Analyze is tested
	// against in the nyx and root tests.
	"ffis/internal/apps/nyx.RunHaloFinder": "reference for App.Analyze",
}

// TestProductionCodeReachable fails on every non-test function, method,
// interface method or untagged exported struct field of the module that no
// program reaches. The roots are every main, init and package-level var
// initializer in the module, and everything the benchmark module
// (ffisbench/) references. A method of an interface the module declares is
// reached only when reached code calls it, and a method whose name and
// signature match it is reached once it is: a wrapper that forwards a
// method nobody calls keeps neither alive. Exempt are methods whose name
// and signature match an interface the module imports or uses from another
// package (it may call them), the Unwrap methods the errors package looks
// for, embedded fields, and reachAllowlist. Code that only tests call
// belongs in a _test.go file.
func TestProductionCodeReachable(t *testing.T) {
	r, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range r.unreachable() {
		t.Error(msg)
	}
}

// TestReachFollowsDeclaredInterfaces runs the guard on a fixture module
// whose interface has one method only a forwarding wrapper calls and one
// that main calls through the interface: exactly the first method and its
// two implementations are reported.
func TestReachFollowsDeclaredInterfaces(t *testing.T) {
	r, err := loadModule(filepath.Join("testdata", "reachfixture"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, msg := range r.unreachable() {
		got = append(got, strings.Fields(msg)[2])
	}
	want := []string{"reachfixture.Store.Drop", "reachfixture.mem.Drop", "reachfixture.counted.Drop"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
}

// reach is the type-checked module: the declarations that may be reported
// and the references each declaration makes.
type reach struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package // type-checked module packages
	files map[string][]*ast.File    // non-test files by import path
	// rootOnly marks packages of nested modules: their code is a root and
	// is never reported.
	rootOnly map[string]bool
	std      types.Importer
}

// loadModule parses and type-checks every package under dir, skipping
// testdata, dot-directories and test files.
func loadModule(dir string) (*reach, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	r := &reach{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
		rootOnly: map[string]bool{},
		std:      importer.Default(),
	}
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(rel))
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(r.fset, filepath.Join(p, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			r.files[ip] = append(r.files[ip], af)
		}
		if p != dir {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				r.rootOnly[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range r.files {
		if _, err := r.Import(ip); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Import type-checks module packages from source, on demand and once, and
// takes everything else from the standard library's export data.
func (r *reach) Import(ip string) (*types.Package, error) {
	if p, ok := r.pkgs[ip]; ok {
		return p, nil
	}
	files, ok := r.files[ip]
	if !ok {
		return r.std.Import(ip)
	}
	conf := types.Config{Importer: r}
	p, err := conf.Check(ip, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[ip] = p
	return p, nil
}

// unreachable returns one "file:line: ..." message per reportable
// declaration that no root reaches, in file order.
func (r *reach) unreachable() []string {
	refs := map[types.Object][]types.Object{} // declaration -> what its body references
	var roots []types.Object
	type decl struct {
		obj  types.Object
		name string
	}
	var candidates []decl

	external, declared := r.interfaceMethods()
	for ip, files := range r.files {
		rootOnly := r.rootOnly[ip]
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := r.info.Defs[d.Name].(*types.Func)
					name := qualifiedName(fn)
					refs[fn] = r.references(d)
					if d.Recv != nil {
						for m := range declared {
							if m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
								refs[m] = append(refs[m], fn)
							}
						}
					}
					switch {
					case rootOnly, d.Recv == nil && (d.Name.Name == "init" ||
						d.Name.Name == "main" && fn.Pkg().Name() == "main"),
						d.Recv != nil && external.satisfies(fn),
						reachAllowlist[name] != "":
						roots = append(roots, fn)
					default:
						candidates = append(candidates, decl{fn, name})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots = append(roots, r.references(s)...)
							}
						case *ast.TypeSpec:
							if rootOnly {
								continue
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										fn := r.info.Defs[id].(*types.Func)
										if name := qualifiedName(fn); reachAllowlist[name] == "" {
											candidates = append(candidates, decl{fn, name})
										}
									}
								}
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								if fld.Tag != nil || len(fld.Names) == 0 {
									continue
								}
								for _, id := range fld.Names {
									v := r.info.Defs[id]
									name := ip + "." + s.Name.Name + "." + id.Name
									if v.Exported() && reachAllowlist[name] == "" {
										candidates = append(candidates, decl{v, name})
									}
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[o] {
			continue
		}
		reached[o] = true
		roots = append(roots, refs[o]...)
	}

	sort.Slice(candidates, func(i, j int) bool {
		pi, pj := r.fset.Position(candidates[i].obj.Pos()), r.fset.Position(candidates[j].obj.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	var out []string
	for _, c := range candidates {
		if reached[c.obj] {
			continue
		}
		pos := r.fset.Position(c.obj.Pos())
		kind := "func"
		if _, ok := c.obj.(*types.Var); ok {
			kind = "field"
		}
		out = append(out, fmt.Sprintf("%s:%d: %s %s is reached by no main, init, package var or ffisbench code",
			filepath.ToSlash(pos.Filename), pos.Line, kind, c.name))
	}
	return out
}

// references lists the functions, methods and fields that n names,
// including every field an unkeyed struct literal sets.
func (r *reach) references(n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch o := r.info.Uses[n].(type) {
			case *types.Func:
				out = append(out, o.Origin())
			case *types.Var:
				if o.IsField() {
					out = append(out, o.Origin())
				}
			}
		case *ast.CompositeLit:
			st, ok := r.info.Types[n].Type.Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			for i := 0; i < st.NumFields(); i++ {
				out = append(out, st.Field(i).Origin())
			}
		}
		return true
	})
	return out
}

// ifaceMethods maps a method name to the signatures interfaces give it.
type ifaceMethods map[string][]*types.Signature

// interfaceMethods collects the methods of every interface the module
// declares or uses and every interface type its imports declare. Those
// declared in the module's own source come back in declared; the rest,
// with the predeclared error, and Unwrap() error and Unwrap() []error,
// which the errors package asserts through interfaces local to its
// functions, come back in external.
func (r *reach) interfaceMethods() (external ifaceMethods, declared map[*types.Func]bool) {
	m := ifaceMethods{}
	declared = map[*types.Func]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			f := it.Method(i)
			if f.Pkg() != nil && r.files[f.Pkg().Path()] != nil {
				declared[f] = true
				continue
			}
			m[f.Name()] = append(m[f.Name()], f.Type().(*types.Signature))
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	for _, res := range []types.Type{errType, types.NewSlice(errType)} {
		m["Unwrap"] = append(m["Unwrap"], types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, nil, "", res)), false))
	}
	for _, tv := range r.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range r.pkgs {
		for _, q := range append(p.Imports(), p) {
			if !seen[q] {
				seen[q] = true
				addScope(q)
			}
		}
	}
	return m, declared
}

// satisfies reports whether some interface has a method with fn's name and
// signature.
func (m ifaceMethods) satisfies(fn *types.Func) bool {
	for _, sig := range m[fn.Name()] {
		if types.Identical(sig, fn.Type()) {
			return true
		}
	}
	return false
}

// qualifiedName renders fn as "pkgpath.Func" or "pkgpath.Type.Method".
func qualifiedName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
