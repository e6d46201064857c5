package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow lists the exported identifiers of internal/... that no
// non-test code references and that stay anyway, each with its reason.
// Everything else exported under internal/ must be reached from production
// code (cmd/, examples/, the repro facade, bench/ or another internal
// package); methods of unexported types and surfaceExemptMethods are exempt
// by rule. An entry that is referenced again, or no longer exists, fails
// the test too, so the list cannot go stale.
var surfaceAllow = map[string]string{
	// The library's public API: repro.Group is comm.Group and repro.Costs is
	// analytic.Costs, so their methods are called by users of the facade,
	// not by this tree (DESIGN §17: internal/comm is kept as repro.Group).
	"comm.Group.Bcast":             "public API through repro.Group",
	"comm.Group.BcastLive":         "public API through repro.Group",
	"comm.Group.BcastLiveReliable": "public API through repro.Group",
	"comm.Group.BcastLiveUDP":      "public API through repro.Group",
	"comm.Group.BcastReliable":     "public API through repro.Group",
	"comm.Group.BcastScheduled":    "public API through repro.Group",
	"comm.Group.Host":              "public API through repro.Group",
	"comm.Group.Rank":              "public API through repro.Group",
	"comm.Group.Scatter":           "public API through repro.Group",
	"comm.Group.Size":              "public API through repro.Group",
	"analytic.Costs.Validate":      "public API through repro.Costs",

	// Methods that satisfy an interface and are only ever called through it.
	"routing.DimOrder.Network":  "satisfies routing.Router",
	"routing.UpDown.Name":       "satisfies routing.Router",
	"link.Link.From":            "satisfies link.Transport",
	"link.Link.To":              "satisfies link.Transport",
	"link.UDPTransport.From":    "satisfies link.Transport",
	"link.UDPTransport.To":      "satisfies link.Transport",
	"link.UDPTransport.Send":    "satisfies link.Transport",
	"link.FaultyTransport.Send": "satisfies link.Transport",
	"link.UDPNetwork.Detach":    "satisfies link.Network; every engine detaches through link.AttachAll",
	"live.Supervisor.Install":   "satisfies reliable.Runtime; the repair brain calls it",
	"live.Supervisor.Retire":    "satisfies reliable.Runtime; the repair brain calls it",
	"live.Supervisor.Chain":     "satisfies reliable.Runtime; the repair brain calls it",
	"live.Supervisor.Reachable": "satisfies reliable.Runtime; the repair brain calls it",

	// Reference implementations tests compare the engines against
	// (DESIGN §17: a reference implementation tests use is not a duplicate).
	"netiface.Forward":                 "Section 3.3 buffer-residency reference for the sim buffer tests",
	"netiface.PipelineArrivals":        "arrival pattern fed to netiface.Forward by those tests",
	"netiface.Trace.MaxResidency":      "reads netiface.Forward's result in those tests",
	"analytic.ConventionalMultiPacket": "closed form the simulators are cross-checked against",
	"analytic.CrossoverPackets":        "closed form the simulators are cross-checked against",
	"analytic.PeakBufferPacketsFCFS":   "Section 3.3.2 closed form the measured occupancy is checked against",
	"analytic.PeakBufferPacketsFPFS":   "Section 3.3.2 closed form the measured occupancy is checked against",
	"ordering.PairwiseChainConflicts":  "contention-freeness measure the CCO/POC tests hold the orderings to",
	"topology.EdgeCut":                 "partition-quality measure the Partition tests hold the partitioner to",

	// Accessors tests use to observe production behaviour.
	"routing.UpDown.Level":        "lets the routing tests check BFS levels and the route-length bound",
	"topology.LinkIDAfterRemoval": "lets the repair tests map routes on a degraded copy back to original link IDs",
	"ordering.Ordering.Hosts":     "lets the ordering tests check the base chain is a permutation",
	"ordering.Ordering.Name":      "lets the ordering tests tell which construction produced a chain",
	"link.Gate.TryAcquire":        "lets the gate tests count free slots without blocking",
	"sched.Handle.Done":           "lets the scheduler tests check a session settled without waiting on it",
	"stats.Summary.N":             "lets the psim tests check WindowStats.PerWindow saw every window",
	"topology.DecodeNetwork":      "the reader of the JSON format cmd/topogen writes",
}

// surfaceExemptMethods are reached through fmt, errors, flag and
// encoding/json rather than by name.
var surfaceExemptMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "Set": true, "MarshalJSON": true,
}

// TestExportedSurfaceIsReached type-checks the non-test files of every
// package of both modules (the root and bench/) and fails naming each
// exported package-level identifier or method under internal/ that none of
// them references. References from _test.go files do not count: a function
// only its own tests call is a capability nothing uses.
func TestExportedSurfaceIsReached(t *testing.T) {
	tree := loadSourceTree(t)
	unreached := map[string]bool{}
	note := func(pkg *types.Package, name string, obj types.Object) {
		if !tree.used[obj] {
			unreached[pkg.Name()+"."+name] = true
		}
	}
	for importPath, pkg := range tree.pkgs {
		if !strings.HasPrefix(importPath, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			note(pkg, name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !surfaceExemptMethods[m.Name()] {
					note(pkg, name+"."+m.Name(), m)
				}
			}
		}
	}

	var failures []string
	for name := range unreached {
		if _, ok := surfaceAllow[name]; !ok {
			failures = append(failures, name+": exported under internal/ but referenced by no non-test code; delete it, or add it to surfaceAllow with a reason")
		}
	}
	for name := range surfaceAllow {
		if !unreached[name] {
			failures = append(failures, name+": on surfaceAllow but referenced by non-test code, or gone; drop the entry")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// optionAllow lists the option fields that no non-test code outside
// defaulting sets and that stay anyway, each with its reason. As with
// surfaceAllow, an entry that is set again, or no longer exists, fails
// TestEveryOptionHasACaller.
var optionAllow = map[string]string{
	"topology.IrregularConfig.ExtraDegree": "the repair tests build their bridge topology with it",

	// The flit-level hardware model: one field per constant of the
	// paper's cost model, as in sim.Params, which PacketParams converts it
	// to. Its tests set BufferFlits; the rest is the hardware description
	// a packet-size study would vary.
	"flitsim.Params.FlitsPerPacket": "flit hardware model",
	"flitsim.Params.CycleUS":        "flit hardware model",
	"flitsim.Params.NISendCycles":   "flit hardware model",
	"flitsim.Params.NIRecvCycles":   "flit hardware model",
	"flitsim.Params.HostSendCycles": "flit hardware model",
	"flitsim.Params.HostRecvCycles": "flit hardware model",
	"flitsim.Params.BufferFlits":    "flit hardware model; its tests sweep buffer depth",
}

// optionStructs are the option types whose names do not end in Config or
// Params.
var optionStructs = map[string]bool{"fault.Plan": true}

// TestEveryOptionHasACaller fails naming each exported field of an option
// struct under internal/ — an exported struct type whose name ends in
// Config or Params, or one of optionStructs — that no non-test, non-example
// code sets outside defaulting code (a function named Default…, or a fill
// or withDefaults method). A field that only its defaults or its tests set
// is a constant with extra steps. Setting is a composite-literal key, an
// assignment or increment, or taking the field's address (flag binding).
func TestEveryOptionHasACaller(t *testing.T) {
	tree := loadSourceTree(t)
	unset := map[string]bool{}
	for importPath, pkg := range tree.pkgs {
		if !strings.HasPrefix(importPath, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			typ := pkg.Name() + "." + name
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params") || optionStructs[typ]) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !tree.set[f] {
					unset[typ+"."+f.Name()] = true
				}
			}
		}
	}

	var failures []string
	for name := range unset {
		if _, ok := optionAllow[name]; !ok {
			failures = append(failures, name+": an option no non-test caller sets outside its defaults; make it a constant, or add it to optionAllow with a reason")
		}
	}
	for name := range optionAllow {
		if !unset[name] {
			failures = append(failures, name+": on optionAllow but set by non-test code, or gone; drop the entry")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

var (
	sourceOnce sync.Once
	sourceLoad *sourceTree
	sourceErr  error
)

// loadSourceTree type-checks the non-test files of both modules once per
// test binary.
func loadSourceTree(t *testing.T) *sourceTree {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library they import from source")
	}
	sourceOnce.Do(func() { sourceLoad, sourceErr = newSourceTree() })
	if sourceErr != nil {
		t.Fatal(sourceErr)
	}
	return sourceLoad
}

func newSourceTree() (*sourceTree, error) {
	tree := &sourceTree{
		fset:   token.NewFileSet(),
		files:  map[string][]string{},
		pkgs:   map[string]*types.Package{},
		used:   map[types.Object]bool{},
		set:    map[*types.Var]bool{},
		stdlib: importer.ForCompiler(token.NewFileSet(), "source", nil),
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			return err
		}
		importPath := path.Join("repro", filepath.ToSlash(dir))
		tree.files[importPath] = append(tree.files[importPath], p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for importPath := range tree.files {
		if _, err := tree.Import(importPath); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

// sourceTree is a types.Importer that type-checks "repro/..." packages from
// the directories of this checkout (bench/ is module repro/bench, so import
// path and directory coincide for both modules) and everything else from
// GOROOT source, recording every object they refer to, and every struct
// field they set, on the way.
type sourceTree struct {
	fset   *token.FileSet
	files  map[string][]string // import path -> its non-test .go files
	pkgs   map[string]*types.Package
	used   map[types.Object]bool // every object some non-test file refers to
	set    map[*types.Var]bool   // every field some non-example file sets outside defaulting
	stdlib types.Importer
}

func (s *sourceTree) Import(importPath string) (*types.Package, error) {
	names, ok := s.files[importPath]
	if !ok {
		return s.stdlib.Import(importPath)
	}
	if pkg, ok := s.pkgs[importPath]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: s}).Check(importPath, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		// Uses of a generic type's method or field name the instantiated
		// copy; record the declared one.
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		s.used[obj] = true
	}
	for i, f := range files {
		if !strings.HasPrefix(names[i], "examples"+string(filepath.Separator)) {
			s.noteSets(f, info)
		}
	}
	s.pkgs[importPath] = pkg
	return pkg, nil
}

// noteSets records the struct fields f sets outside defaulting code: the
// keys of composite literals, the targets of assignments and increments,
// and the operands of &.
func (s *sourceTree) noteSets(f *ast.File, info *types.Info) {
	note := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				s.set[v.Origin()] = true
			}
		}
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && isDefaulting(fd) {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				note(n.Key)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					note(lhs)
				}
			case *ast.IncDecStmt:
				note(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					note(n.X)
				}
			}
			return true
		})
	}
}

// isDefaulting reports whether fd is a type's defaulting code: a function
// named Default…, or a fill or withDefaults method.
func isDefaulting(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "Default") || fd.Recv != nil && (name == "fill" || name == "withDefaults")
}
