package xsec

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedFunctionsHaveCallers holds DESIGN §11's function rule: every
// exported function and method under internal/ has a caller outside
// _test.go files (cmd/, examples/ and benchmark/ count), or satisfies an
// interface some non-test code uses, or is on §11's kept list with its
// reason. A kept entry that gains a caller or disappears fails too, so
// the list stays the set of exceptions and nothing else.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	if raceEnabled {
		t.Skip("a static scan; the race detector adds nothing to it")
	}
	kept := readKeptFunctions(t, "DESIGN.md")

	s := newCallerScan(t)
	var missing []string
	for name, fn := range s.exported {
		if s.used[fn] || s.satisfiesInterface(fn) {
			if _, ok := kept[name]; ok {
				t.Errorf("%s is on DESIGN §11's kept list but has a non-test caller: take it off", name)
			}
			continue
		}
		if _, ok := kept[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside tests: delete it, unexport it, or keep it in DESIGN §11 with a reason", name)
	}
	for name := range kept {
		if _, ok := s.exported[name]; !ok {
			t.Errorf("DESIGN §11 keeps %s, which is not an exported function under internal/", name)
		}
	}
}

// readKeptFunctions reads the rows "| `pkg.Func` | reason |" of the table
// under DESIGN.md's "**Functions.**" paragraph.
func readKeptFunctions(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kept := map[string]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "**Functions.**"):
			in = true
		case in && strings.HasPrefix(line, "| `"):
			cells := strings.Split(line, "|")
			if len(cells) < 4 || strings.TrimSpace(cells[2]) == "" {
				t.Fatalf("%s: kept function without a reason: %q", file, line)
			}
			kept[strings.Trim(strings.TrimSpace(cells[1]), "`")] = strings.TrimSpace(cells[2])
		case in && len(kept) > 0 && !strings.HasPrefix(line, "|"):
			return kept
		}
	}
	if len(kept) == 0 {
		t.Fatalf("%s: no kept-function table after **Functions.**", file)
	}
	return kept
}

// callerScan type-checks the module's non-test files and records which
// functions they reference.
type callerScan struct {
	fset     *token.FileSet
	std      types.Importer
	module   string
	pkgs     map[string]*types.Package // by import path
	dirs     map[string]string         // import path → directory
	exported map[string]*types.Func    // "pkg.Func" / "pkg.Type.Method" under internal/
	used     map[*types.Func]bool
	ifaces   map[*types.Interface]bool // every interface type non-test code mentions
}

func newCallerScan(t *testing.T) *callerScan {
	t.Helper()
	s := &callerScan{
		fset:     token.NewFileSet(),
		module:   "github.com/6g-xsec/xsec",
		pkgs:     map[string]*types.Package{},
		dirs:     map[string]string{},
		exported: map[string]*types.Func{},
		used:     map[*types.Func]bool{},
		ifaces:   map[*types.Interface]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		s.dirs[path.Join(s.module, filepath.ToSlash(p))] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for imp := range s.dirs {
		if _, err := s.load(imp); err != nil {
			t.Fatalf("%s: %v", imp, err)
		}
	}
	return s
}

// Import makes callerScan the type checker's importer: module packages
// are checked from source once, the standard library comes from export
// data.
func (s *callerScan) Import(imp string) (*types.Package, error) {
	if _, ok := s.dirs[imp]; ok {
		return s.load(imp)
	}
	pkg, err := s.std.Import(imp)
	if err == nil {
		// The standard library calls some methods through interfaces it
		// checks at run time (fmt.Stringer, json.Marshaler): count every
		// interface an imported package declares.
		for _, name := range pkg.Scope().Names() {
			if obj, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && obj.Exported() {
				s.collectIfaces(obj.Type(), map[types.Type]bool{})
			}
		}
	}
	return pkg, err
}

func (s *callerScan) load(imp string) (*types.Package, error) {
	if pkg, ok := s.pkgs[imp]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(s.dirs[imp], 0)
	if _, ok := err.(*build.NoGoError); ok {
		s.pkgs[imp] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(s.dirs[imp], name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: s}).Check(imp, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[imp] = pkg
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			s.used[fn.Origin()] = true
		}
	}
	for _, tv := range info.Types {
		s.collectIfaces(tv.Type, map[types.Type]bool{})
	}
	if strings.HasPrefix(imp, s.module+"/internal/") {
		s.collectExported(pkg)
	}
	return pkg, nil
}

// collectIfaces records every interface type reachable from typ: a
// concrete method that satisfies one of them may be called dynamically.
func (s *callerScan) collectIfaces(typ types.Type, seen map[types.Type]bool) {
	if typ == nil || seen[typ] {
		return
	}
	seen[typ] = true
	switch u := typ.(type) {
	case *types.Named:
		s.collectIfaces(u.Underlying(), seen)
	case *types.Interface:
		s.ifaces[u] = true
	case *types.Pointer:
		s.collectIfaces(u.Elem(), seen)
	case *types.Slice:
		s.collectIfaces(u.Elem(), seen)
	case *types.Array:
		s.collectIfaces(u.Elem(), seen)
	case *types.Chan:
		s.collectIfaces(u.Elem(), seen)
	case *types.Map:
		s.collectIfaces(u.Key(), seen)
		s.collectIfaces(u.Elem(), seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				s.collectIfaces(tup.At(i).Type(), seen)
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.collectIfaces(u.Field(i).Type(), seen)
		}
	}
}

func (s *callerScan) collectExported(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() && name != "main" {
				s.exported[pkg.Name()+"."+name] = obj
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || !obj.Exported() || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					s.exported[pkg.Name()+"."+name+"."+m.Name()] = m
				}
			}
		}
	}
}

// satisfiesInterface reports whether fn is a method that lets its
// receiver type (or a pointer to it) implement an interface non-test
// code mentions, so calls may reach it through that interface.
func (s *callerScan) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for iface := range s.ifaces {
		if iface.Empty() {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
	}
	return false
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
