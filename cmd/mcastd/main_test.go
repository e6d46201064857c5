package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
)

func skipWithoutLoopback(t *testing.T) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

// TestAllMode runs the single-process loopback deployment end to end
// and pins the report: every destination delivered, exit 0.
func TestAllMode(t *testing.T) {
	skipWithoutLoopback(t)
	var out, errw bytes.Buffer
	code := run([]string{"-all", "-dims", "3", "-bytes", "1500", "-packet", "128"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "root confirmed 7/7 destinations") {
		t.Fatalf("missing confirmation line:\n%s", s)
	}
	if !strings.Contains(s, "delivered 1500 bytes") {
		t.Fatalf("missing delivery lines:\n%s", s)
	}
}

// TestReliableAllMode runs the reliable deployment under a seeded 3%
// self-test drop plane: the run must still exit 0 with a Delivered
// verdict and byte-exact confirmation for every destination.
func TestReliableAllMode(t *testing.T) {
	skipWithoutLoopback(t)
	var out, errw bytes.Buffer
	code := run([]string{"-all", "-reliable", "-droprate", "0.03",
		"-dims", "3", "-bytes", "1500", "-packet", "128"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "verdict delivered:") {
		t.Fatalf("missing verdict line:\n%s", s)
	}
	if !strings.Contains(s, "root confirmed 7/7 destinations") {
		t.Fatalf("missing confirmation line:\n%s", s)
	}
}

// TestPartialProgress runs a root whose peer hosts are a black hole: the
// watchdog fires, exit 1, and the report counts the one destination the
// root saw complete, its local child h3 (the plan's source h2 feeds h3
// and h0; h1 hangs off h0).
func TestPartialProgress(t *testing.T) {
	skipWithoutLoopback(t)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	peers := fmt.Sprintf("0=%s,1=%s", sink.LocalAddr(), sink.LocalAddr())
	var out, errw bytes.Buffer
	code := run([]string{"-dims", "2", "-bytes", "300", "-hosts", "2,3", "-peers", peers, "-timeout", "400ms"}, &out, &errw)
	if code != 1 || !strings.Contains(out.String(), "partial progress: 1/3 destinations confirmed\n") {
		t.Fatalf("exit %d, want 1 with one of three destinations confirmed\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestNegativeBuffer: a negative -buffer is refused, plain or reliable,
// not run as if unbounded.
func TestNegativeBuffer(t *testing.T) {
	skipWithoutLoopback(t)
	for _, extra := range [][]string{nil, {"-reliable"}} {
		var out, errw bytes.Buffer
		args := append([]string{"-all", "-dests", "3", "-buffer", "-5"}, extra...)
		if code := run(args, &out, &errw); code == 0 || !strings.Contains(errw.String(), "negative buffer bound -5") {
			t.Errorf("%q: exit %d, want a failure naming the bound\nstderr:\n%s", args, code, errw.String())
		}
	}
}

// TestNegativeQuorum: -reliable -quorum below 0 is a usage error, as in
// mcastsim, not run as if every destination were required.
func TestNegativeQuorum(t *testing.T) {
	skipWithoutLoopback(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-all", "-dests", "3", "-reliable", "-quorum", "-2"}, &out, &errw); code != 2 || errw.String() != "mcastd: negative quorum -2\n" {
		t.Fatalf("exit %d, want 2 naming the quorum\nstderr:\n%s", code, errw.String())
	}
}

// TestUsageErrors pins exit code 2 on bad invocations, and one stderr
// line naming the command once for every refusal after flag parsing.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad-flag", []string{"-no-such-flag"}},
		{"bad-topo", []string{"-topo", "torus", "-all"}},
		{"bad-dests", []string{"-all", "-dims", "3", "-dests", "99"}},
		{"all-with-hosts", []string{"-all", "-hosts", "0"}},
		{"no-hosts", []string{"-dims", "3"}},
		{"bad-bind", []string{"-hosts", "0", "-bind", "nonsense"}},
		{"bad-peers", []string{"-hosts", "0", "-peers", "1:missing-equals"}},
		{"negative-bytes", []string{"-all", "-dests", "3", "-bytes", "-5"}},
		{"arity-0", []string{"-all", "-arity", "0"}},
		{"arity-1", []string{"-all", "-arity", "1"}},
		{"dims-0", []string{"-all", "-dims", "0"}},
		{"dims-40", []string{"-all", "-dims", "40"}},
		{"mesh-too-large", []string{"-all", "-topo", "mesh", "-arity", "2000", "-dims", "2"}},
		{"small-mtu", []string{"-all", "-dests", "3", "-mtu", "10"}},
		{"negative-window", []string{"-all", "-dests", "3", "-window", "-1"}},
		{"negative-rto", []string{"-all", "-dests", "3", "-reliable", "-rto", "-5ms"}},
		{"negative-retries", []string{"-all", "-dests", "3", "-reliable", "-retries", "-3"}},
		{"negative-timeout", []string{"-all", "-dests", "3", "-timeout", "-1s"}},
		{"negative-drain", []string{"-all", "-dests", "3", "-drain", "-1s"}},
		{"negative-k", []string{"-all", "-dests", "3", "-k", "-2"}},
		{"negative-droprate", []string{"-all", "-dests", "3", "-reliable", "-droprate", "-0.1"}},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstderr:\n%s", tc.name, code, errw.String())
		}
		if msg := errw.String(); tc.name != "bad-flag" && (strings.Count(msg, "\n") != 1 || strings.Count(msg, "mcastd: ") != 1) {
			t.Errorf("%s: stderr %q, want one line naming mcastd once", tc.name, msg)
		}
	}
}

// TestMissingPeers: a multi-process invocation whose peer map does not
// cover the tree is a usage error naming the gap.
func TestMissingPeers(t *testing.T) {
	skipWithoutLoopback(t)
	var out, errw bytes.Buffer
	code := run([]string{"-dims", "2", "-hosts", "0"}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "neither local nor in -peers") {
		t.Fatalf("gap not reported:\n%s", errw.String())
	}
}
