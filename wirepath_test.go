package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestWirePathIsWrittenOnce reads the non-test source of the module (bench/
// is its own) and holds the receive path to its shape: checksums come from
// hash/crc32 and are computed in two files; a received packet is validated
// by one call per path, message.Parse, or — where the plain FPFS step
// forwards in between — by its halves, DecodeHeader at the NI's session
// lookup and Header.Verify in HostSession.Serve; and the reassembler behind
// those is fed through Put, which validates nothing. Where a step has no
// seam a behavioural test could count passes at (ReliableNI.serve, the
// receive path of every reliable driver), this is the pin; the others
// also have one next to the code.
func TestWirePathIsWrittenOnce(t *testing.T) {
	sums := map[string]bool{
		filepath.Join("internal", "message", "message.go"):       true,
		filepath.Join("internal", "live", "link", "udpframe.go"): true,
	}
	// Calls per file, by selector name: every name listed is counted, so 0
	// means "must not appear".
	calls := map[string]map[string]int{
		filepath.Join("internal", "live", "rni.go"): {"Parse": 1, "Put": 1, "DecodeHeader": 0, "Verify": 0, "Add": 0},
		// The switched transport carries frames; it never reads one.
		filepath.Join("internal", "live", "switched.go"):    {"Parse": 0, "Put": 0, "DecodeHeader": 0, "Verify": 0},
		filepath.Join("internal", "live", "hostsession.go"): {"Verify": 1, "Put": 1, "DecodeHeader": 0, "Parse": 0, "Add": 0},
		// The scheduler runs live.Share: no receive or forward path of its own.
		filepath.Join("internal", "sched", "sched.go"): {"DecodeHeader": 0, "Serve": 0, "Forward": 0, "Parse": 0, "Verify": 0},
		// The plain daemon runs live.Share: no receive path of its own.
		filepath.Join("internal", "mcastd", "mcastd.go"): {"DecodeHeader": 0, "Serve": 0, "Forward": 0, "Parse": 0, "Verify": 0},
		// The second decode is Config.Record's send tracer; the one Forward
		// is the root NI's source step.
		filepath.Join("internal", "live", "ni.go"): {"DecodeHeader": 2, "Serve": 1, "Forward": 1, "Parse": 0, "Verify": 0},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name[0] == '.' || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		// The 32-bit FNV prime, in the decimal the hand-written loops used.
		if prime := strconv.Itoa(0x01000193); strings.Contains(string(src), prime) {
			t.Errorf("%s: a hand-written FNV-1a (its prime, %s)", p, prime)
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "hash/") && !(path == "hash/crc32" && sums[p]) {
				t.Errorf("%s imports %s: checksums are hash/crc32's, in message.go and link/udpframe.go only", p, path)
			}
		}
		want, ok := calls[p]
		if !ok {
			return nil
		}
		delete(calls, p)
		got := map[string]int{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					got[sel.Sel.Name]++
				}
			}
			return true
		})
		for name, n := range want {
			if got[name] != n {
				t.Errorf("%s calls %s %d times, want %d", p, name, got[name], n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range calls {
		t.Errorf("%s: no such file", p)
	}
}
