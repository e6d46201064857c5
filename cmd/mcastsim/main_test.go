package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build (only for an intended output change)")

// mcastsim runs the command in-process and returns stdout, stderr and the
// exit code.
func mcastsim(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// TestGolden pins what a user sees in the deterministic modes. The files
// under testdata/golden were recorded from the binary built at the parent
// commit (f14e54a, before run() existed): `mcastsim ARGS > NAME.txt`, the
// trace row with `-trace-json TRACE.json`; mesh-4096 the same way at
// dbf7708 and conventional-workers at 764ff9d (its psim: line pins the
// window count across the change that ends Conventional windows at the
// first forward), and kill-repair — the one that reaches mid-flight tree
// repair: 134 dead-link sends, 3 repairs — at e4760e6, before the
// virtual-time machine's repairs moved into reliable.Brain. They are the
// reference the rewrite was held to — run -update only when a later change
// alters the output on purpose, and review the diff. reliable-droprate and
// faults-kill-corrupt were re-recorded once, when the machine stopped
// drawing every loss from one run-wide stream and drew each edge
// incarnation's from its own (internal/fault): only their result and
// injected lines moved (3 vs 1 drops; 2 vs 1 corruptions), and every
// other golden, kill-repair included, stayed byte-identical. The five
// reliable goldens (reliable-droprate, faults-kill-corrupt, kill-repair,
// crash-quorum, crash-recover) were re-recorded once more when the
// machine was deleted and -reliable came to run the shipped runtime over
// the switched network: the acks/nacks counts left the result line (ACKs
// are marks, and a corrupt copy is resent by its timer, not NACKed); every
// verdict, and the sends of the two lossy runs, held; a loss costs one
// retransmission timeout (one lossless multicast) instead of the
// machine's reservation-derived timer, and crash detection runs on the
// supervisor's detector. Every other golden stayed byte-identical.
func TestGolden(t *testing.T) {
	for name, args := range map[string]string{
		"default":               "",
		"readme":                "-dests 47 -packets 8 -tree optimal",
		"binomial-fcfs-verbose": "-tree binomial -ni fcfs -verbose",
		"fixedk-conventional":   "-tree k -k 3 -ni conventional",
		"flit":                  "-model flit",
		"mesh-workers":          "-mesh 8x2 -dests 40 -workers 3",
		"conventional-workers":  "-tree k -k 3 -ni conventional -workers 3",
		"mesh-4096":             "-mesh 64x2 -dests 4000 -packets 2",
		"timeline":              "-timeline",
		"trace-json":            "-trace-json TRACE.json",
		"reliable-droprate":     "-reliable -droprate 0.02",
		"faults-kill-corrupt":   "-faults kill:74@40,corrupt:0.01",
		"kill-repair":           "-faults kill:66@20",
		"crash-quorum":          "-crash 19@40 -quorum 1 -dests 31",
		"crash-recover":         "-crash 19@40@400",
	} {
		t.Run(name, func(t *testing.T) {
			// The trace file lands in a scratch directory; the golden
			// names it by the bare file name it was recorded with.
			tracePath := filepath.Join(t.TempDir(), "TRACE.json")
			argv := strings.Fields(strings.Replace(args, "TRACE.json", tracePath, 1))
			got, stderr, code := mcastsim(argv...)
			if code != 0 || stderr != "" {
				t.Fatalf("mcastsim %s: exit %d, stderr %q", args, code, stderr)
			}
			golden(t, name+".txt", strings.Replace(got, tracePath, "TRACE.json", 1))
			if raw, err := os.ReadFile(tracePath); err == nil {
				golden(t, name+".json", string(raw))
			}
		})
	}
}

func golden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded output:\n got:\n%s\nwant:\n%s", file, got, want)
	}
}

// TestWorkersFlagChangesOnlyTheEngine: the serial loop and the windowed
// scheduler at 1 and 3 workers must report the same result line and the
// same per-destination completions; -workers adds only the psim: line.
func TestWorkersFlagChangesOnlyTheEngine(t *testing.T) {
	// report keeps the result: line and the -verbose completion rows.
	report := func(out string) string {
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "result:") || strings.HasPrefix(line, "  h") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	serialOut, _, _ := mcastsim("-seed", "7", "-verbose")
	want := report(serialOut)
	if n := strings.Count(want, "\n") + 1; n != 1+15 {
		t.Fatalf("serial run printed %d result/completion lines, want 16:\n%s", n, serialOut)
	}
	if strings.Contains(serialOut, "psim:") {
		t.Errorf("serial run printed a psim: line:\n%s", serialOut)
	}
	for _, workers := range []string{"1", "3"} {
		out, stderr, code := mcastsim("-seed", "7", "-verbose", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", workers, code, stderr)
		}
		if got := report(out); got != want {
			t.Errorf("-workers %s diverged from the serial run:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		if !strings.Contains(out, "psim:   "+workers+" workers") {
			t.Errorf("-workers %s: no psim: line:\n%s", workers, out)
		}
	}
}

// TestFaultGrammar: every directive of both -faults dialects lands in the
// right field in the right unit, and every malformed form is refused with
// its message.
func TestFaultGrammar(t *testing.T) {
	crash := []repro.HostCrash{{Host: 19, At: 4, RecoverAt: 40}}
	fp, err := faultPlan("kill:74@40, stall:19@10-60.5,corrupt:0.01,ackdrop:0.02,seed:18446744073709551615,kill:3@1e2", false, 0.05, crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Kills) != 2 || fp.Kills[0] != (repro.LinkKill{Link: 74, At: 40}) || fp.Kills[1] != (repro.LinkKill{Link: 3, At: 100}) ||
		len(fp.Stalls) != 1 || fp.Stalls[0] != (repro.HostStall{Host: 19, From: 10, Until: 60.5}) ||
		len(fp.Crashes) != 1 || fp.Crashes[0] != crash[0] ||
		fp.DropRate != 0.05 || fp.CorruptRate != 0.01 || fp.AckDropRate != 0.02 || fp.Seed != 1<<64-1 {
		t.Errorf("simulated dialect parsed to %+v", fp)
	}

	lf, err := faultPlan("kill:7-12@5,stall:3@1-2.5,corrupt:0.01,reorder:0.1,ackdrop:0.02,jitter:0.5,seed:3", true, 0, crash)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Kills) != 1 || lf.Kills[0] != (repro.LinkKill{Link: fault.Pair, From: 7, To: 12, At: 5000}) ||
		len(lf.Stalls) != 1 || lf.Stalls[0] != (repro.HostStall{Host: 3, From: 1000, Until: 2500}) ||
		len(lf.Crashes) != 1 || lf.Crashes[0] != (repro.HostCrash{Host: 19, At: 4000, RecoverAt: 40_000}) ||
		lf.CorruptRate != 0.01 || lf.ReorderRate != 0.1 || lf.AckDropRate != 0.02 ||
		lf.MaxJitter != 500*time.Microsecond || lf.Seed != 3 {
		t.Errorf("live dialect parsed to %+v", lf)
	}

	if fp, err := faultPlan("", false, 0, nil); err != nil || fp.Seed != 1 {
		t.Errorf("empty -faults: %+v, %v", fp, err)
	}

	for _, bad := range []struct {
		live       bool
		spec, want string
	}{
		{false, "bogus", `directive "bogus" is not kind:value`},
		{false, "corrupt:0.1,,seed:2", `directive "" is not kind:value`},
		{false, "flood:1", `unknown fault directive "flood"`},
		{true, "flood:1", `unknown fault directive "flood"`},
		{false, "kill:74", `kill "74" is not LINK@T`},
		{false, "kill:7-12@5", `kill LINK "7-12": invalid syntax`},
		{false, "kill:74@soon", `kill T "soon": invalid syntax`},
		{true, "kill:74@40", `kill "74@40" is not FROM-TO@T`},
		{true, "kill:7-12", `kill "7-12" is not FROM-TO@T`},
		{true, "kill:7-x@5", `kill TO "x": invalid syntax`},
		{false, "stall:19", `stall "19" is not HOST@FROM-UNTIL`},
		{false, "stall:19@10", `stall "19@10" is not HOST@FROM-UNTIL`},
		{false, "stall:h19@10-60", `stall HOST "h19": invalid syntax`},
		{true, "stall:19@10-sixty", `stall UNTIL "sixty": invalid syntax`},
		{false, "corrupt:lots", `corrupt P "lots": invalid syntax`},
		{false, "ackdrop:", `ackdrop P "": invalid syntax`},
		{true, "reorder:x", `reorder P "x": invalid syntax`},
		{true, "jitter:1ms", `jitter D "1ms": invalid syntax`},
		{false, "seed:-1", `seed N "-1": invalid syntax`},
		{false, "seed:99999999999999999999", `seed N "99999999999999999999": value out of range`},
	} {
		if _, err := faultPlan(bad.spec, bad.live, 0, nil); err == nil || err.Error() != bad.want {
			t.Errorf("-faults %q (live=%v): error %v, want %s", bad.spec, bad.live, err, bad.want)
		}
	}

	// The same messages reach the user, as usage errors, in either plane;
	// -crash shares the number parser.
	for _, args := range [][]string{
		{"-faults", "kill:74"},
		{"-live", "-faults", "kill:74@40"},
		{"-crash", "19"},
		{"-crash", "19@soon"},
		{"-crash", "19@40@400@9"},
	} {
		if _, stderr, code := mcastsim(args...); code != 2 || !(strings.Contains(stderr, " is not ") || strings.Contains(stderr, "invalid syntax")) {
			t.Errorf("mcastsim %v: exit %d, stderr %q", args, code, stderr)
		}
	}
}

// TestFlagModes: the mode table covers exactly the registered flags, names
// only real modes, and a flag moved off its default outside its modes is a
// usage error naming the flag and the mode — including every combination
// that used to be silently ignored.
func TestFlagModes(t *testing.T) {
	registered := map[string]bool{}
	newFlags(new(options), io.Discard).VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if flagModes[f.Name] == "" {
			t.Errorf("flag -%s declares no modes in flagModes", f.Name)
		}
	})
	for name, modes := range flagModes {
		if !registered[name] {
			t.Errorf("flagModes names -%s, which is not a flag", name)
		}
		for _, m := range strings.Fields(modes) {
			if engines[m] == nil {
				t.Errorf("flagModes[%q] names unknown mode %q", name, m)
			}
		}
	}

	for _, c := range []struct{ args, flag, mode string }{
		{"-quorum 3", "-quorum", "packet mode"},
		{"-k 5", "-k", "packet mode without -tree k"},
		{"-live -timeline", "-timeline", "live mode"},
		{"-reliable -trace-json F", "-trace-json", "sim-reliable mode"},
		{"-sessions 5 -net", "-net", "sched mode"},
		{"-sessions 5 -net -reliable", "-net", "sched mode"},
		{"-sessions 5 -reliable", "-reliable", "sched mode"},
		{"-sessions 5 -tree binomial", "-tree", "sched mode"},
		{"-net", "-net", "packet mode"},
		{"-retries 3", "-retries", "packet mode"},
		{"-window 8", "-window", "packet mode"},
		{"-live-timeout 1s", "-live-timeout", "packet mode"},
		{"-model flit -verbose", "-verbose", "flit mode"},
		{"-model flit -timeline", "-timeline", "flit mode"},
		{"-workers 2 -live", "-workers", "live mode"},
		{"-workers 2 -model flit", "-workers", "flit mode"},
		{"-workers 2 -droprate 0.1", "-workers", "sim-reliable mode"},
		{"-live -ni fcfs", "-ni", "live mode"},
		{"-reliable -model flit", "-model", "sim-reliable mode"},
		{"-live -droprate 0.1 -trace-json F", "-trace-json", "live-reliable mode"},
	} {
		stdout, stderr, code := mcastsim(strings.Fields(c.args)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "mcastsim: "+c.flag+" does not apply to "+c.mode) {
			t.Errorf("mcastsim %s: exit %d, stdout %q, stderr %q; want a usage error naming %s and %s",
				c.args, code, stdout, stderr, c.flag, c.mode)
		}
	}

	// A flag set to its default changes nothing in any mode and stays valid.
	want, _, _ := mcastsim()
	if got, stderr, code := mcastsim("-droprate", "0", "-live=false", "-k", "2", "-quorum", "0"); code != 0 || got != want {
		t.Errorf("flags at their defaults: exit %d, stderr %q, output:\n%s", code, stderr, got)
	}
}

// TestExitCodes: 2 for what the caller got wrong, 1 for a run that failed.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args, stderr string
		code         int
	}{
		{"-bogus", "flag provided but not defined", 2},
		{"-tree foo", `unknown tree policy "foo"`, 2},
		{"-ni foo", `unknown NI discipline "foo"`, 2},
		{"-model foo", `unknown model "foo"`, 2},
		{"-dests 64", "dests must be in 1..63", 2},
		{"-sessions 5 -dests 0", "dests must be in 1..63", 2},
		{"-sessions 20 -dests 6 -packets 2 -window -5", "-window must be >= 1", 2},
		{"-sessions 20 -dests 6 -packets 2 -window 0", "-window must be >= 1", 2},
		{"-mesh 3", `-mesh "3" is not ARITYxDIMS`, 2},
		{"-mesh 1x2", "arity must be >= 2", 2},
		{"-mesh 2x40", "grid has more than 1048576 hosts", 2},
		{"-mesh 1100000x1", "grid has more than 1048576 hosts", 2},
		{"-workers -1", "-workers must not be negative", 2},
		{"-live -live-timeout -1s", "-live-timeout must not be negative", 2},
		{"-sessions 3 -dests 3 -packets -1", "-packets must be >= 1", 2},
		{"-tree k -k 0", "fixed-k policy with k=0", 2},
		{"-droprate 1.5", "drop rate 1.500000 outside [0, 1)", 2},
		{"-reliable -retries 0", "retry budget 0 < 1", 2},
		{"-live -reliable -quorum -1", "negative quorum -1", 2},
		{"-faults kill:999@4", "kill link 999 out of range", 2},
		{"-faults kill:95@4", "kill link 95 out of range (network has links 0..94)", 2},
		{"-faults kill:-1@4", "invalid kill", 2},
		{"-crash 99999@4", "crash of host 99999 outside the tree", 2},
		{"-faults reorder:0.1", "reliable: fault plan field ReorderRate is not supported", 2},
		{"-faults jitter:1", "reliable: fault plan field MaxJitter is not supported", 2},
		{"-live -faults kill:7-12@5 -dests 3", "kill of host pair 7->12 outside the tree", 2},
		{"-crash 19@40 -dests 31", "quorum missed after crash(es) [19]", 1},
		{"-droprate 0.5 -retries 1", "reliable:", 1},
		{"-faults kill:49@20", "network partitioned): [49]", 1},
		{"-faults kill:57@20", "network partitioned): [57]", 1},
		{"-trace-json /nonexistent-dir/t.json", "-trace-json:", 1},
	} {
		if _, stderr, code := mcastsim(strings.Fields(c.args)...); code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("mcastsim %s: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, stderr, c.code, c.stderr)
		}
	}
}

var number = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(µs|ms|s)?`)

// TestLiveModes drives the wall-clock modes end to end: exit 0 and the
// report's line skeleton with every number normalised to N. Nothing here
// depends on how long anything took.
func TestLiveModes(t *testing.T) {
	const (
		system = "system: N hosts, N switches, N links (seed N)\n"
		spec   = "spec:   source hN, N destinations, N packets (N payload bytes), optimal-k-binomial tree, "
		plan   = "plan:   k=N, tree depth=N, root degree=N\n"
		result = "result: wall latency N, N sends; simulator predicts N us for this plan\n" +
			"        N of N destinations reassembled the message byte-exactly\n"
		udp = "{BadDatagrams:N Foreign:N Resyncs:N Overflow:N CtlDropped:N}\n"
	)
	for _, c := range []struct {
		args, want string
		net        bool
	}{
		{args: "-live", want: system + spec + "live FPFS over channel links\n" + plan + result},
		{args: "-live -droprate 0.05", want: system + spec + "reliable live FPFS over channel links\n" +
			"faults: drop=N corrupt=N reorder=N ackdrop=N jitter=N kills=N stalls=N crashes=N seed=N\n" +
			"result: wall latency N, N sends (N retransmits), N duplicates suppressed, N stale fenced\n" +
			"        injected: N dropped, N corrupted, N reordered, N acks lost, N dead-link sends\n" +
			"        status delivered: all N destinations received the N-byte message byte-exactly\n"},
		{args: "-sessions 50 -dests 7 -packets 4", want: system +
			"sched:  N sessions (N dests, N packets each), window N, N-host shared fabric\n" +
			"result: wall N, N sessions/sec, completion pN N pN N\n" +
			"        N of N sessions delivered byte-exactly at every destination; max in flight N, N frames dropped\n"},
		{args: "-live -net", net: true, want: system + spec + "live FPFS over loopback UDP sockets\n" + plan +
			"fabric: " + udp + result},
	} {
		t.Run(c.args, func(t *testing.T) {
			if c.net {
				conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Skipf("loopback UDP unavailable: %v", err)
				}
				conn.Close()
			}
			stdout, stderr, code := mcastsim(strings.Fields(c.args)...)
			if code != 0 {
				t.Fatalf("exit %d: %s\n%s", code, stderr, stdout)
			}
			if got := number.ReplaceAllString(stdout, "N"); got != c.want {
				t.Errorf("report skeleton:\n got:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}
