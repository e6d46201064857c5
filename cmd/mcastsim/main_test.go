package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// main parses the process's flags and exits on error, so the test binary
// re-execs itself: with MCASTSIM_RUN_MAIN set, TestMain runs the command
// instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("MCASTSIM_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MCASTSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mcastsim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
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
	serialOut := runMain(t, "-seed", "7", "-verbose")
	want := report(serialOut)
	if n := strings.Count(want, "\n") + 1; n != 1+15 {
		t.Fatalf("serial run printed %d result/completion lines, want 16:\n%s", n, serialOut)
	}
	if strings.Contains(serialOut, "psim:") {
		t.Errorf("serial run printed a psim: line:\n%s", serialOut)
	}
	for _, workers := range []string{"1", "3"} {
		out := runMain(t, "-seed", "7", "-verbose", "-workers", workers)
		if got := report(out); got != want {
			t.Errorf("-workers %s diverged from the serial run:\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		if !strings.Contains(out, "psim:   "+workers+" workers") {
			t.Errorf("-workers %s: no psim: line:\n%s", workers, out)
		}
	}
}
