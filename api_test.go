// Every package and every function must earn its place.
// TestPackagesJustified holds DESIGN.md §2's package table to the tree:
// each package is listed once, with the figure, CI step or program that
// needs it. TestExportsUsed type-checks the module and fails on an
// exported function or method that nothing outside its own package uses,
// and on an unexported one that only tests use.
package repro

import (
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
	"regexp"
	"sort"
	"strings"
	"testing"
)

const modulePath = "repro"

// keptExports are exports with no caller outside their package that stay
// anyway, each for the reason given. Keep this list short.
var keptExports = map[string]string{
	"internal/array.ReadArray": "the only decoder of `mg -dump` files; its round-trip tests pin WriteTo's format",
}

func TestPackagesJustified(t *testing.T) {
	m := loadModule(t)
	figs := mgbenchFigs(t)
	steps := map[string]map[string]bool{}
	for _, s := range ciSteps(t) {
		if steps[s.job] == nil {
			steps[s.job] = map[string]bool{}
		}
		steps[s.job][s.name] = true
	}
	rows := packageTable(t)

	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.dir] {
			t.Errorf("DESIGN.md §2: %s is listed twice", r.dir)
		}
		seen[r.dir] = true
		if m.pkgs[r.dir] == nil {
			t.Errorf("DESIGN.md §2: %s is not a package", r.dir)
			continue
		}
		switch kind, rest, _ := strings.Cut(r.why, " "); kind {
		case "-fig":
			if !figs[rest] {
				t.Errorf("DESIGN.md §2: %s: mgbench accepts no -fig %q", r.dir, rest)
			}
		case "ci:":
			job, step, _ := strings.Cut(rest, " / ")
			if !steps[job][step] {
				t.Errorf("DESIGN.md §2: %s: ci.yml has no step %q in job %q", r.dir, step, job)
			}
		case "caller:":
			if m.pkgs[rest] == nil || m.pkgs[rest].name != "main" {
				t.Errorf("DESIGN.md §2: %s: %s is not a program", r.dir, rest)
			} else if !m.imports(rest, r.dir) {
				t.Errorf("DESIGN.md §2: %s: %s does not import it", r.dir, rest)
			}
		default:
			t.Errorf("DESIGN.md §2: %s: justification %q is none of `-fig <mode>`, `ci: <job> / <step>`, `caller: <program>`", r.dir, r.why)
		}
	}
	for dir, p := range m.pkgs {
		if (strings.HasPrefix(dir, "internal/") || dir == "sacmg") && p.name != "main" && !seen[dir] {
			t.Errorf("DESIGN.md §2: package %s has no row", dir)
		}
	}
}

// TestExportsUsed holds every package-level function and method to a
// caller. An exported one of internal/… or sacmg needs a user outside its
// package (tests count); an unexported one anywhere but bench/ needs a
// caller in non-test code other than its own body. Either passes when it
// makes its receiver satisfy an interface. bench/ is the repository
// benchmark, frozen between benchmark changes, so it is not checked.
func TestExportsUsed(t *testing.T) {
	m := loadModule(t)
	var hits []string
	for dir, p := range m.pkgs {
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			continue
		}
		for _, f := range p.funcs {
			key := dir + "." + f.key
			if !f.obj.Exported() {
				if !m.usedInside[key] && !m.satisfiesInterface(f.obj) {
					hits = append(hits, key+": nothing but tests uses it (delete it)")
				}
				continue
			}
			if !(strings.HasPrefix(dir, "internal/") || dir == "sacmg") {
				continue
			}
			if _, ok := keptExports[key]; ok {
				continue
			}
			if m.usedOutside[key] || dir == "sacmg" && m.inExamples[key] || m.satisfiesInterface(f.obj) {
				continue
			}
			if m.usedInside[key] {
				hits = append(hits, key+": only its own package uses it (unexport it)")
			} else {
				hits = append(hits, key+": nothing but its own tests uses it (delete it)")
			}
		}
	}
	for key := range keptExports {
		if !m.declared[key] {
			hits = append(hits, key+": on the keep list but not declared")
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Error(h)
	}
	if len(keptExports) > 3 {
		t.Errorf("keep list has %d entries, at most 3 allowed", len(keptExports))
	}
}

// modPkg is one directory of the module, type-checked without its tests.
type modPkg struct {
	dir, name string
	types     *types.Package
	files     []*ast.File
	tests     []*ast.File // the _test.go files, in-package and external
	funcs     []declFunc  // package-level functions and methods
}

type declFunc struct {
	key string // Name or Recv.Name
	obj *types.Func
}

type module struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*modPkg // by directory, "." for the root
	ifaces   map[*types.Interface]bool
	declared map[string]bool
	// usedInside holds the keys used by the declaring package's own
	// non-test code, apart from a function's use of itself.
	usedInside map[string]bool
	// usedOutside holds the keys used by any file outside the declaring
	// directory, tests included; inExamples those used by sacmg's Examples.
	usedOutside, inExamples map[string]bool
}

var loaded *module

// loadModule parses every package of the module, type-checks it with its
// tests, and records which of its functions each file uses.
func loadModule(t *testing.T) *module {
	t.Helper()
	if loaded != nil {
		return loaded
	}
	fset := token.NewFileSet()
	m := &module{
		fset:        fset,
		std:         importer.ForCompiler(fset, "source", nil),
		pkgs:        map[string]*modPkg{},
		ifaces:      map[*types.Interface]bool{},
		declared:    map[string]bool{},
		usedInside:  map[string]bool{},
		usedOutside: map[string]bool{},
		inExamples:  map[string]bool{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return m.parseDir(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range m.pkgs {
		if _, err := m.check(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range sortedKeys(m.pkgs) {
		if err := m.checkTests(m.pkgs[dir]); err != nil {
			t.Fatal(err)
		}
	}
	m.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, src := range []string{"Unwrap() error", "Unwrap() []error", "Is(error) bool", "As(any) bool"} {
		m.ifaces[m.parseIface(t, src)] = true
	}
	m.addNamedIfaces()
	loaded = m
	return m
}

func (m *module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &modPkg{dir: dir}
	for _, e := range entries {
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
			p.name = f.Name.Name
		}
	}
	if len(p.files) > 0 {
		m.pkgs[filepath.ToSlash(dir)] = p
	}
	return nil
}

func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

func (m *module) Import(ip string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(ip, modulePath+"/"); ok {
		return m.check(dir)
	}
	return m.std.Import(ip)
}

// check type-checks the non-test files of dir once.
func (m *module) check(dir string) (*types.Package, error) {
	p := m.pkgs[dir]
	if p == nil {
		return nil, os.ErrNotExist
	}
	if p.types != nil {
		return p.types, nil
	}
	info := m.newInfo()
	tp, err := (&types.Config{Importer: m}).Check(importPath(dir), m.fset, p.files, info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	m.record(dir, info, p.files, false)
	for _, f := range p.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
				continue
			}
			obj := info.Defs[fd.Name].(*types.Func)
			e := declFunc{key: funcKey(obj), obj: obj}
			p.funcs = append(p.funcs, e)
			m.declared[dir+"."+e.key] = true
		}
	}
	return tp, nil
}

// checkTests type-checks the package again with its in-package tests, and
// its external tests against that, recording their uses.
func (m *module) checkTests(p *modPkg) error {
	var in, ext []*ast.File
	for _, f := range p.tests {
		if f.Name.Name == p.name {
			in = append(in, f)
		} else {
			ext = append(ext, f)
		}
	}
	self := p.types
	if len(in) > 0 {
		info := m.newInfo()
		files := append(append([]*ast.File{}, p.files...), in...)
		tp, err := (&types.Config{Importer: m}).Check(importPath(p.dir), m.fset, files, info)
		if err != nil {
			return err
		}
		self = tp
		m.record(p.dir, info, in, true)
	}
	if len(ext) == 0 {
		return nil
	}
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if ip == importPath(p.dir) {
			return self, nil
		}
		return m.Import(ip)
	})
	// The external tests see the package with its in-package test files,
	// while the module packages they import see it without: type errors
	// where the two meet are expected and ignored, as every identifier
	// is still resolved.
	info := m.newInfo()
	conf := types.Config{Importer: imp, Error: func(error) {}}
	conf.Check(importPath(p.dir)+"_test", m.fset, ext, info)
	m.record(p.dir, info, ext, true)
	return nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(ip string) (*types.Package, error) { return f(ip) }

func (m *module) newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// record notes every module function that files (type-checked as part of
// dir) use, and every non-empty interface type they mention.
func (m *module) record(dir string, info *types.Info, files []*ast.File, test bool) {
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			m.ifaces[it] = true
		}
	}
	for _, f := range files {
		var example *ast.FuncDecl
		var self types.Object // the function whose body is being walked
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GenDecl); ok {
				self = nil
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				self = info.Defs[fd.Name]
				example = nil
				if strings.HasPrefix(fd.Name.Name, "Example") {
					example = fd
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), modulePath) || fn.Origin() == self {
				return true
			}
			from := strings.TrimPrefix(strings.TrimPrefix(strings.TrimSuffix(fn.Pkg().Path(), "_test"), modulePath), "/")
			if from == "" {
				from = "."
			}
			key := from + "." + funcKey(fn)
			switch {
			case from != dir:
				m.usedOutside[key] = true
			case example != nil:
				m.inExamples[key] = true
			case !test:
				m.usedInside[key] = true
			}
			return true
		})
	}
}

// funcKey names a function Name and a method Recv.Name.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if n, ok := types.Unalias(rt).(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// satisfiesInterface reports whether fn is a method that makes its
// receiver type (or a pointer to it) implement an interface with that
// method: one declared in the module or a package it imports, or one the
// module's code spells out.
func (m *module) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	for it := range m.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			return true
		}
	}
	return false
}

// addNamedIfaces adds every non-generic named interface that the
// module's packages, and the packages they import, declare.
func (m *module) addNamedIfaces() {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				m.ifaces[it] = true
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
	}
}

func (m *module) parseIface(t *testing.T, method string) *types.Interface {
	t.Helper()
	tv, err := types.Eval(m.fset, nil, token.NoPos, "interface{ "+method+" }")
	if err != nil {
		t.Fatal(err)
	}
	return tv.Type.Underlying().(*types.Interface)
}

// imports reports whether the package in dir imports the one in dep,
// directly or through other packages of the module.
func (m *module) imports(dir, dep string) bool {
	seen := map[*types.Package]bool{}
	want := m.pkgs[dep].types
	var walk func(*types.Package) bool
	walk = func(p *types.Package) bool {
		if p == want {
			return true
		}
		if seen[p] || !strings.HasPrefix(p.Path(), modulePath) {
			return false
		}
		seen[p] = true
		for _, q := range p.Imports() {
			if walk(q) {
				return true
			}
		}
		return false
	}
	return walk(m.pkgs[dir].types)
}

type tableRow struct{ dir, why string }

// packageTable reads the rows of DESIGN.md §2's inventory table: the
// package path from the first code span of a row's second cell and its
// justification from the code span of its last cell.
func packageTable(t *testing.T) []tableRow {
	t.Helper()
	blob, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(blob)
	if i := strings.Index(sec, "\n## 2."); i >= 0 {
		sec = sec[i+1:]
	}
	if i := strings.Index(sec[1:], "\n## "); i >= 0 {
		sec = sec[:i+1]
	}
	span := regexp.MustCompile("`([^`]+)`")
	var rows []tableRow
	header := true
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			header = true
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if header || strings.HasPrefix(strings.TrimSpace(cells[0]), "--") {
			header = header && !strings.HasPrefix(strings.TrimSpace(cells[0]), "--")
			continue
		}
		if len(cells) < 4 {
			t.Fatalf("DESIGN.md §2: short row %q", line)
		}
		for _, m := range span.FindAllStringSubmatch(cells[2], -1) {
			dir := path.Clean(strings.TrimSuffix(m[1], "/"))
			if strings.HasPrefix(dir, "internal/") || dir == "sacmg" {
				why := span.FindStringSubmatch(cells[len(cells)-1])
				if why == nil {
					t.Fatalf("DESIGN.md §2: row %q has no justification span", line)
				}
				rows = append(rows, tableRow{dir, why[1]})
			}
		}
	}
	if len(rows) < 10 {
		t.Fatalf("DESIGN.md §2: found only %d package rows", len(rows))
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
