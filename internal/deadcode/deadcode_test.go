// Package deadcode holds the dead-code ratchet, TestNoDeadCode. It has no
// non-test code: `go test ./...` runs it, and so does `make deadcode`.
package deadcode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// module is the import path prefix of the code the ratchet scans.
const module = "beqos"

// TestNoDeadCode fails on any non-test function of a non-main package that
// no binary links, unless allowlist.txt names it, and on any allowlist
// entry that names a function that no longer exists or that a binary now
// links. The binaries are every main package of the module and perfbench,
// built from its own module, all with inlining off in beqos packages so a
// small function keeps its symbol wherever it is called.
func TestNoDeadCode(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("need the go command to build and list binaries: %v", err)
	}
	root := strings.TrimSpace(string(run(t, "", gobin, "list", "-m", "-f", "{{.Dir}}")))
	watchSources(t, root)
	pkgs := listPackages(t, gobin, root)

	var mains []string
	decls := map[string]fn{}
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
			continue
		}
		for _, d := range declared(t, p) {
			decls[d.name] = d
		}
	}

	bin := t.TempDir()
	gcflags := "-gcflags=" + module + "/...=-l"
	run(t, root, gobin, append([]string{"build", gcflags, "-o", bin + string(filepath.Separator)}, mains...)...)
	run(t, filepath.Join(root, "perfbench"), gobin, "build", gcflags, "-o", filepath.Join(bin, "perfbench"), ".")
	binaries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	syms := map[string]bool{}
	for _, b := range binaries {
		for s := range textSymbols(run(t, "", gobin, "tool", "nm", filepath.Join(bin, b.Name()))) {
			syms[s] = true
		}
	}
	if len(binaries) != len(mains)+1 || len(syms) == 0 {
		t.Fatalf("built %d binaries for %d main packages and perfbench, linking %d %s functions",
			len(binaries), len(mains), len(syms), module)
	}

	allow := readAllowlist(t, "allowlist.txt")
	var dead []fn
	allowed, allowedLines := 0, 0
	for _, d := range decls {
		switch {
		case d.linkedIn(syms):
		case allow[d.name] != 0:
			allowed++
			allowedLines += d.lines
		default:
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	for _, d := range dead {
		t.Errorf("%s: %s (%d lines) is linked by no binary: delete it, or name it in allowlist.txt with the reason it stays",
			d.pos, d.name, d.lines)
	}
	for name, line := range allow {
		d, ok := decls[name]
		switch {
		case !ok:
			t.Errorf("allowlist.txt:%d: %s names no function declared outside tests: drop the entry", line, name)
		case d.linkedIn(syms):
			t.Errorf("allowlist.txt:%d: %s is linked by a binary now: drop the entry", line, name)
		}
	}
	t.Logf("%d binaries link %d of %d %s functions; %d more (%d lines) are allowlisted",
		len(binaries), len(decls)-allowed-len(dead), len(decls), module, allowed, allowedLines)
}

// TestSymbolMatching checks that declarations and the symbols of their code
// meet: each function below is declared in source, and the go tool nm
// listing holds a symbol of the shape the compiler gives it, or none.
func TestSymbolMatching(t *testing.T) {
	const src = `package resv
func Map[K comparable, V any](m map[K]V) {}
func KappaStar() {}
func Unlinked() {}
func (c *Cell[P]) Reserve() {}
func (c *Cell[P]) Res() {}
func (t *Table[T]) Insert() {}
func (l *Lifecycle) Every() {}
func (n *Node) expire() {}
func (p Poisson) Mean() float64 { return 0 }
func (p Poisson) Variance() float64 { return 0 }
func (s Slot[T]) Data() {}
func init() {}
`
	const nm = `  4a5b20 T beqos/internal/resv.(*Cell[go.shape.*uint8]).Reserve
  4a5c00 T beqos/internal/resv.(*Table[go.shape.struct { beqos/internal/resv.slot beqos/internal/resv.Slot[beqos/internal/resv.hold] }]).Insert
  4a6000 T beqos/internal/resv.Map[go.shape.int,go.shape.float64]
  4a6100 t beqos/internal/resv.KappaStar.func1.1
  4a6200 T beqos/internal/resv.(*Lifecycle).Every.func1.deferwrap1
  4a6300 T beqos/internal/resv.(*Node).expire-fm
  4a6400 T beqos/internal/resv.(*Poisson).Mean
  4a6500 T beqos/internal/resv.Slot[go.shape.int].Data
  4a6600 D beqos/internal/resv.Unlinked
  4a6700 T runtime.main
`
	want := map[string]bool{
		"beqos/internal/resv.Map":                true,  // generic function
		"beqos/internal/resv.KappaStar":          true,  // nested closure
		"beqos/internal/resv.(*Cell).Reserve":    true,  // generic method
		"beqos/internal/resv.(*Table).Insert":    true,  // generic method on a struct shape
		"beqos/internal/resv.(*Lifecycle).Every": true,  // defer wrapper in a closure
		"beqos/internal/resv.(*Node).expire":     true,  // method value
		"beqos/internal/resv.Poisson.Mean":       true,  // value method through its pointer wrapper
		"beqos/internal/resv.Slot.Data":          true,  // generic value method
		"beqos/internal/resv.Unlinked":           false, // a data symbol is no code
		"beqos/internal/resv.(*Cell).Res":        false, // a name prefix is no match
		"beqos/internal/resv.Poisson.Variance":   false, // neither it nor its wrapper
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "resv.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	syms := textSymbols([]byte(nm))
	fns := fileFuncs(fset, "beqos/internal/resv", f)
	for _, d := range fns {
		w, ok := want[d.name]
		if !ok {
			t.Errorf("%s: declared as %q, which the test does not expect", d.pos, d.name)
			continue
		}
		if got := d.linkedIn(syms); got != w {
			t.Errorf("%s: linked = %v, want %v (symbols %v)", d.name, got, w, syms)
		}
	}
	if len(fns) != len(want) {
		t.Errorf("declared %d functions, want %d (init is left out)", len(fns), len(want))
	}
}

// watchSources opens every directory under root that the go command
// searches for packages, perfbench's included. go list, the builds and go
// tool nm read the sources in child processes, which go test's result cache
// does not see; a directory the test opens itself keys the cached result on
// the name, size and modification time of each file in it, so a change to
// any file of the tree, or a file added or removed, runs the ratchet again.
func watchSources(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pkg is the part of `go list -json` the ratchet reads.
type pkg struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

func listPackages(t *testing.T, gobin, root string) []pkg {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(run(t, root, gobin, "list", "-json", "./...")))
	var pkgs []pkg
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list -json: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// fn is a function or method declared outside tests.
type fn struct {
	// name is the function's symbol as go tool nm prints it, less type
	// arguments: beqos/internal/resv.(*Cell).Reserve.
	name string
	// ptr names a value method's pointer wrapper, beqos/internal/dist.(*Poisson).Mean
	// for beqos/internal/dist.Poisson.Mean; it is empty for any other function.
	ptr   string
	pos   string // file:line of the declaration
	lines int
}

// linkedIn reports whether the symbol set holds the function, or, for a
// value method, its pointer wrapper.
func (d fn) linkedIn(syms map[string]bool) bool {
	return syms[d.name] || d.ptr != "" && syms[d.ptr]
}

// declared parses a package's non-test files and returns their functions.
func declared(t *testing.T, p pkg) []fn {
	t.Helper()
	fset := token.NewFileSet()
	var fns []fn
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fileFuncs(fset, p.ImportPath, f)...)
	}
	return fns
}

// fileFuncs returns a file's functions and methods, leaving out init and
// blank functions, which nothing calls by name.
func fileFuncs(fset *token.FileSet, importPath string, f *ast.File) []fn {
	var fns []fn
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "_" || fd.Recv == nil && fd.Name.Name == "init" {
			continue
		}
		d := declaredFn(importPath, fd)
		start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
		d.pos = fmt.Sprintf("%s:%d", start.Filename, start.Line)
		d.lines = end.Line - start.Line + 1
		fns = append(fns, d)
	}
	return fns
}

// declaredFn names a declaration the way go tool nm names its symbol.
func declaredFn(importPath string, fd *ast.FuncDecl) fn {
	if fd.Recv == nil {
		return fn{name: importPath + "." + fd.Name.Name}
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		return fn{name: importPath + ".(*" + typeName(star.X) + ")." + fd.Name.Name}
	}
	typ := typeName(recv)
	return fn{
		name: importPath + "." + typ + "." + fd.Name.Name,
		ptr:  importPath + ".(*" + typ + ")." + fd.Name.Name,
	}
}

// typeName returns a receiver's type name without its type parameters.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return fmt.Sprintf("%T", e)
}

// nmLine splits a line of go tool nm output into its symbol type and name.
// A name may hold spaces: a generic's shape can be a struct type.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)

// textSymbols returns the functions of the module that go tool nm lists as
// text symbols, each named as its declaration is (see symbolName).
func textSymbols(nm []byte) map[string]bool {
	syms := map[string]bool{}
	for _, line := range strings.Split(string(nm), "\n") {
		m := nmLine.FindStringSubmatch(line)
		if m == nil || m[1] != "T" && m[1] != "t" {
			continue
		}
		if name := m[2]; strings.HasPrefix(name, module+".") || strings.HasPrefix(name, module+"/") {
			syms[symbolName(name)] = true
		}
	}
	return syms
}

// closure matches the suffix the compiler gives a closure or a go or defer
// wrapper inside a function: .func1, .func1.2, .gowrap1, .deferwrap1.
var closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?[0-9]+)+$`)

// symbolName maps a text symbol to the function it belongs to: it strips
// generic instantiations, (*Cell[go.shape.*uint8]).Reserve becoming
// (*Cell).Reserve, a method value's -fm wrapper, and closure and wrapper
// suffixes, so a closure counts for the function that holds it.
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closure.ReplaceAllString(strings.TrimSuffix(b.String(), "-fm"), "")
}

// readAllowlist reads the allowlist, one function per line, named as fn.name
// is, then the reason it stays; blank lines and lines starting with # are
// comments. It maps each function to its line number.
func readAllowlist(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		name := fields[0]
		switch {
		case len(fields) == 1:
			t.Errorf("%s:%d: %s has no reason", path, i+1, name)
		case allow[name] != 0:
			t.Errorf("%s:%d: %s is listed twice", path, i+1, name)
		}
		allow[name] = i + 1
	}
	return allow
}

// run runs a command in dir ("" for the test's own) and returns its
// standard output, failing the test on an error.
func run(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}
