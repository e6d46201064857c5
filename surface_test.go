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
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library they import from source")
	}
	tree := &sourceTree{
		fset:   token.NewFileSet(),
		files:  map[string][]string{},
		pkgs:   map[string]*types.Package{},
		used:   map[types.Object]bool{},
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
		t.Fatal(err)
	}
	for importPath := range tree.files {
		if _, err := tree.Import(importPath); err != nil {
			t.Fatal(err)
		}
	}

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

// sourceTree is a types.Importer that type-checks "repro/..." packages from
// the directories of this checkout (bench/ is module repro/bench, so import
// path and directory coincide for both modules) and everything else from
// GOROOT source, recording every object they refer to on the way.
type sourceTree struct {
	fset   *token.FileSet
	files  map[string][]string // import path -> its non-test .go files
	pkgs   map[string]*types.Package
	used   map[types.Object]bool // every object some non-test file refers to
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
	s.pkgs[importPath] = pkg
	return pkg, nil
}
