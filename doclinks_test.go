package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/experiments"
)

// docNotLinks lists the backticked hyphenated names DESIGN.md and README.md
// use that are none of the three things such a name is checked against (an
// invariant ID, a Makefile target, an experiment ID), each with what it is.
var docNotLinks = map[string]string{
	"sim-reliable":  "a cmd/mcastsim mode name (DESIGN §17)",
	"live-reliable": "a cmd/mcastsim mode name (DESIGN §17)",
}

var (
	docQual   = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)")
	docPath   = regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9_]+`)
	docData   = regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9_/]*/testdata\b[A-Za-z0-9_/.*?-]*`)
	docMake   = regexp.MustCompile("`make ([^`]*)`")
	docName   = regexp.MustCompile("`([a-z][a-z0-9]*(?:-[a-z0-9]+)+)`")
	docTarget = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	makeRule  = regexp.MustCompile(`^([a-z][a-z0-9-]*):`)
	docCmd    = regexp.MustCompile("`(mcastd|mcastsim) ([^`]*)`")
	docFlag   = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
)

// TestDocLinks holds DESIGN.md and README.md to the tree they describe:
// every internal/<pkg> and cmd/<bin> they mention is a directory, every
// testdata path they cite under one exists (a cited glob matches a file),
// every `make <target>` (backticked, or a command line of a code block) is
// a Makefile target, every backticked name shaped like an invariant ID
// is one — or a make target, or an experiment ID — and every backticked
// `pkg.Name` whose pkg is a directory under internal/ names a top-level
// declaration of that package, and every flag of a backticked `mcastd …` or
// `mcastsim …` command is one its cmd/<bin>/main.go registers. A dangling
// name fails with its file and line.
func TestDocLinks(t *testing.T) {
	decls := internalDecls(t)
	flags := map[string]map[string]bool{"mcastd": binFlags(t, "mcastd"), "mcastsim": binFlags(t, "mcastsim")}
	targets := map[string]bool{}
	mk, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer mk.Close()
	for sc := bufio.NewScanner(mk); sc.Scan(); {
		if m := makeRule.FindStringSubmatch(sc.Text()); m != nil {
			targets[m[1]] = true
		}
	}
	known := func(name string) bool {
		_, isInvariant := check.InvariantByID(name)
		_, isExperiment := experiments.ByID(name)
		_, isOther := docNotLinks[name]
		return isInvariant || isExperiment || isOther || targets[name]
	}
	used := map[string]bool{}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			for _, p := range docPath.FindAllString(text, -1) {
				if st, err := os.Stat(p); err != nil || !st.IsDir() {
					t.Errorf("%s:%d: %s is not a directory of this tree", doc, line, p)
				}
			}
			for _, p := range docData.FindAllString(text, -1) {
				p = strings.TrimRight(p, ".")
				if matches, err := filepath.Glob(p); err != nil || len(matches) == 0 {
					t.Errorf("%s:%d: %s matches nothing in this tree", doc, line, p)
				}
			}
			var makes []string
			for _, m := range docMake.FindAllStringSubmatch(text, -1) {
				makes = append(makes, m[1])
			}
			if cmd, ok := strings.CutPrefix(strings.TrimSpace(text), "make "); ok {
				makes = append(makes, cmd)
			}
			for _, args := range makes {
				for _, w := range strings.Fields(args) {
					if docTarget.MatchString(w) && !targets[w] {
						t.Errorf("%s:%d: make %s: no such Makefile target", doc, line, w)
					}
				}
			}
			for _, m := range docCmd.FindAllStringSubmatch(text, -1) {
				for _, w := range strings.Fields(m[2]) {
					if f := docFlag.FindStringSubmatch(w); f != nil && !flags[m[1]][f[1]] {
						t.Errorf("%s:%d: `%s %s`: cmd/%s registers no flag -%s", doc, line, m[1], m[2], m[1], f[1])
					}
				}
			}
			for _, m := range docQual.FindAllStringSubmatch(text, -1) {
				if names, ok := decls[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s:%d: `%s.%s`: package %s declares no %s", doc, line, m[1], m[2], m[1], m[2])
				}
			}
			for _, m := range docName.FindAllStringSubmatch(text, -1) {
				used[m[1]] = true
				if !known(m[1]) {
					t.Errorf("%s:%d: `%s` is not an invariant ID, a Makefile target or an experiment ID; fix the name, or list it in docNotLinks with what it is", doc, line, m[1])
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for name := range docNotLinks {
		if !used[name] {
			t.Errorf("docNotLinks lists %s, which neither document names any more; drop the entry", name)
		}
	}
}

// designBudget is DESIGN.md's size in bytes when its size gate was set. A
// change that adds to DESIGN.md cuts as much elsewhere; one that shrinks
// it may lower the budget to the new size.
const designBudget = 65427

// TestDesignWithinBudget fails once DESIGN.md grows past designBudget.
func TestDesignWithinBudget(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > designBudget {
		t.Errorf("DESIGN.md is %d B, over its %d B budget: cut as much elsewhere as this change adds", fi.Size(), designBudget)
	}
}

// TestMakefileRunPatternsNameTests holds every `go test … -run <pattern>
// <packages>` command of the Makefile to the tests it selects: each
// |-alternative of the pattern but ^$ must match the name of a func Test…
// in the _test.go files of those packages. A pattern left naming a renamed
// or deleted test makes go test pass while it runs nothing.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	stale := staleRunPatterns(t, "\t$(GO) test -race -count=1 -run 'TestPlainShare|TestAbortedRunLeaksNoGoroutines' ./internal/live\n")
	if want := []string{"TestPlainShare"}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("the self-check's stale line yields %q, want %q", stale, want)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range staleRunPatterns(t, string(mk)) {
		t.Errorf("Makefile: -run alternative %q matches no Test function of its packages", alt)
	}
}

// makeRun matches one go test command with a -run pattern, quoted or bare,
// and what follows it.
var makeRun = regexp.MustCompile(`\btest\b.*-run (?:'([^']*)'|(\S+))(.*)`)

// staleRunPatterns returns the -run alternatives of makefile's go test
// commands that match no Test function of the packages the command names.
func staleRunPatterns(t *testing.T, makefile string) []string {
	t.Helper()
	var stale []string
	tests := map[string][]string{} // by package argument
	for _, line := range strings.Split(strings.ReplaceAll(makefile, "\\\n", " "), "\n") {
		for _, cmd := range strings.FieldsFunc(line, func(r rune) bool { return r == ';' || r == '&' }) {
			m := makeRun.FindStringSubmatch(cmd)
			if m == nil {
				continue
			}
			var names []string
			for _, arg := range strings.Fields(m[3]) {
				if arg == "." || strings.HasPrefix(arg, "./") {
					if tests[arg] == nil {
						tests[arg] = testFuncs(t, arg)
					}
					names = append(names, tests[arg]...)
				}
			}
			for _, alt := range strings.Split(strings.ReplaceAll(m[1]+m[2], "$$", "$"), "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil || !slices.ContainsFunc(names, re.MatchString) {
					stale = append(stale, alt)
				}
			}
		}
	}
	return stale
}

// testFuncs lists the func Test… names of the _test.go files of one go
// test package argument: a directory, or a directory/... tree.
func testFuncs(t *testing.T, arg string) []string {
	t.Helper()
	dir, tree := strings.CutSuffix(arg, "/...")
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != dir && (!tree || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// binFlags returns the flags cmd/<bin>/main.go registers: the name argument
// of every fs.<Type>(name, …) and fs.<Type>Var(&v, name, …) call.
func binFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", bin, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("cmd/%s/main.go: no fs flag registrations found", bin)
	}
	return flags
}

// internalDecls maps the name of every directory under internal/ to the
// top-level declarations of the package its non-test files make.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(p))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					decls[pkg][decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[pkg][n.Name] = true
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
	return decls
}
