package live

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/reliable"
	"repro/internal/tree"
)

// fastReliable returns a config tuned for test wall-clock: tight RTO, and
// the harness's detector windows (check.liveReliableConfig). In process
// the crash schedule says which hosts are up, so the windows time only a
// down host's silence.
func fastReliable() ReliableConfig {
	cfg := DefaultReliableConfig()
	cfg.RTO = 10 * time.Millisecond
	cfg.RTOMax = 80 * time.Millisecond
	cfg.Live.Timeout = 20 * time.Second
	cfg.Heartbeat = HeartbeatParams{
		SuspectAfter: 40 * time.Millisecond,
		ConfirmAfter: 30 * time.Millisecond,
	}
	return cfg
}

func reliableSession(t *testing.T, tr *tree.Tree, payload []byte) Session {
	t.Helper()
	return Session{Tree: tr, Packets: mustPacketize(t, 1, tr.Root(), payload), MsgID: 1}
}

func checkAllDelivered(t *testing.T, res *ReliableResult, tr *tree.Tree, payload []byte) {
	t.Helper()
	for _, v := range tr.Nodes() {
		if v == tr.Root() {
			continue
		}
		rec := res.Hosts[v]
		if rec == nil || !bytes.Equal(rec.Data, payload) {
			t.Fatalf("host %d: payload mismatch (rec=%v)", v, rec != nil)
		}
	}
}

// With a zero fault plane, the reliable engine must reproduce the
// lossless engine exactly: same arrivals (packet order and tree edge),
// same bytes, same send/recv counts, zero retransmissions.
func TestReliableZeroFaultsMatchesPlainEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *tree.Tree
		buf  int
	}{
		{"chain8", chainTree(8), 0},
		{"star6", starTree(6), 2},
		{"kbin", tree.KBinomial([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := payloadBytes(300)
			s := reliableSession(t, tc.tr, payload)
			cfg := fastReliable()
			cfg.RTO = 500 * time.Millisecond // no fault can fire; a retransmit would be a bug
			cfg.RTOMax = time.Second
			cfg.Live.BufferPackets = tc.buf

			plain, err := Run([]Session{s}, cfg.Live)
			if err != nil {
				t.Fatalf("plain Run: %v", err)
			}
			res, err := RunReliable(s, cfg)
			if err != nil {
				t.Fatalf("RunReliable: %v", err)
			}
			if res.Status != reliable.Delivered {
				t.Fatalf("status %v", res.Status)
			}
			if res.Retransmits != 0 || res.Duplicates != 0 || res.Fenced != 0 || res.Epoch != 0 {
				t.Fatalf("zero-fault run injected protocol noise: %+v", res)
			}
			m := len(s.Packets)
			if res.Sends != (tc.tr.Size()-1)*m {
				t.Fatalf("sends = %d, want %d", res.Sends, (tc.tr.Size()-1)*m)
			}
			for _, v := range tc.tr.Nodes() {
				pr, rr := plain.Sessions[0].Hosts[v], res.Hosts[v]
				if pr.Sends != rr.Sends || pr.Recvs != rr.Recvs {
					t.Fatalf("host %d: sends/recvs %d/%d vs plain %d/%d",
						v, rr.Sends, rr.Recvs, pr.Sends, pr.Recvs)
				}
				if len(pr.Arrivals) != len(rr.Arrivals) {
					t.Fatalf("host %d: %d arrivals vs plain %d", v, len(rr.Arrivals), len(pr.Arrivals))
				}
				for i := range pr.Arrivals {
					if pr.Arrivals[i] != rr.Arrivals[i] {
						t.Fatalf("host %d arrival %d: %+v vs plain %+v", v, i, rr.Arrivals[i], pr.Arrivals[i])
					}
				}
				if !bytes.Equal(pr.Data, rr.Data) {
					t.Fatalf("host %d: bytes differ from plain engine", v)
				}
			}
		})
	}
}

// Heavy loss (and corruption, and reordering) must still deliver
// byte-exact everywhere via retransmission.
func TestReliableSurvivesLossyTransport(t *testing.T) {
	tr := tree.KBinomial([]int{0, 1, 2, 3, 4, 5, 6, 7}, 2)
	payload := payloadBytes(500)
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.RetryBudget = 20
	cfg.Faults = fault.Plan{Seed: 7, DropRate: 0.25, CorruptRate: 0.1, ReorderRate: 0.1, AckDropRate: 0.15}
	res, err := RunReliable(s, cfg)
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if res.Status != reliable.Delivered {
		t.Fatalf("status %v", res.Status)
	}
	checkAllDelivered(t, res, tr, payload)
	if res.Retransmits == 0 {
		t.Fatal("a 25% drop rate should force retransmissions")
	}
	if res.Faults == (fault.Stats{}) {
		t.Fatalf("chaos plane injected nothing: %+v", res.Faults)
	}
}

// A killed link exhausts its retry budget; the subtree behind it must be
// re-grafted onto a fresh transport and still complete.
func TestReliableRepairsKilledLink(t *testing.T) {
	tr := chainTree(5) // 0-1-2-3-4: kill 1->2, orphans {2,3,4}
	payload := payloadBytes(200)
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.RTO = 5 * time.Millisecond
	cfg.RTOMax = 20 * time.Millisecond
	cfg.RetryBudget = 3
	cfg.Faults = fault.Plan{Seed: 3, Kills: []fault.Kill{{Link: fault.Pair, From: 1, To: 2, At: 0}}}
	res, err := RunReliable(s, cfg)
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	checkAllDelivered(t, res, tr, payload)
	if res.Adoptions == 0 {
		t.Fatal("kill repair should count an adoption")
	}
	if res.Faults.DeadSends == 0 {
		t.Fatal("killed edge counted no dead sends")
	}
}

// Crash-stop of an interior host: its subtree is adopted mid-message and
// every survivor completes; the dead host is reported and the epoch
// advanced.
func TestReliableCrashStopAdoption(t *testing.T) {
	tr := chainTree(6) // 0-1-2-3-4-5; crash 2 → {3,4,5} adopted
	payload := payloadBytes(800)
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.Faults = fault.Plan{Seed: 11, MaxJitter: 2 * time.Millisecond, Crashes: []fault.Crash{{Host: 2, At: 4000}}}
	cfg.Quorum = 1
	res, err := RunReliable(s, cfg)
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if res.Status != reliable.Delivered && res.Status != reliable.DeliveredPartial {
		t.Fatalf("status %v (orphaned %v)", res.Status, res.Orphaned)
	}
	for _, v := range []int{1, 3, 4, 5} {
		if d, ok := findHost(res, v); !ok || !bytes.Equal(d, payload) {
			// Host 1 may legitimately have completed before the crash; but
			// every survivor must end byte-exact.
			t.Fatalf("survivor %d incomplete or corrupt", v)
		}
	}
	if res.Epoch < 2 {
		t.Fatalf("epoch %d: confirmation should have advanced it", res.Epoch)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 2 {
		t.Fatalf("crashed = %v, want [2]", res.Crashed)
	}
	if res.Adoptions == 0 {
		t.Fatal("crash adoption not counted")
	}
	for _, a := range res.Accepts {
		if a.Epoch > res.Epoch {
			t.Fatalf("accept %+v above final epoch %d", a, res.Epoch)
		}
	}
}

// Crash-recovery: the host comes back amnesiac, rejoins via heartbeat,
// and is replayed to full completion. It stays down three confirmation
// times, so that the detector — whose clock stops while the box starves
// the process — has confirmed it well before it returns.
func TestReliableCrashRecoveryReplays(t *testing.T) {
	tr := starTree(5)
	payload := payloadBytes(600)
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.Faults = fault.Plan{Seed: 5, MaxJitter: 2 * time.Millisecond, Crashes: []fault.Crash{{Host: 3, At: 2000, RecoverAt: 300_000}}}
	res, err := RunReliable(s, cfg)
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	checkAllDelivered(t, res, tr, payload)
	if len(res.Crashed) != 0 {
		t.Fatalf("crashed = %v after recovery", res.Crashed)
	}
	if res.Epoch < 3 {
		// one confirm + one rejoin, at minimum
		t.Fatalf("epoch %d, want >= 3", res.Epoch)
	}
}

// A crash-stopped quorum shortfall yields Failed + *reliable.CrashError.
func TestReliableQuorumVerdicts(t *testing.T) {
	tr := starTree(4) // dests 1,2,3
	payload := payloadBytes(100)
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.Faults.Crashes = []fault.Crash{{Host: 1, At: 0}, {Host: 2, At: 0}}
	cfg.Quorum = 2
	res, err := RunReliable(s, cfg)
	if err == nil {
		t.Fatalf("quorum 2 with 2 crash-stops should fail, got status %v", res.Status)
	}
	var ce *reliable.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T, want *reliable.CrashError", err)
	}
	if ce.Delivered != 1 || ce.Quorum != 2 {
		t.Fatalf("crash error %+v", ce)
	}
	if res == nil || res.Status != reliable.Failed {
		t.Fatal("failed run must still return its result")
	}
	// Quorum 1 with the same schedule succeeds partially.
	cfg.Quorum = 1
	res, err = RunReliable(s, cfg)
	if err != nil {
		t.Fatalf("quorum 1: %v", err)
	}
	if res.Status != reliable.DeliveredPartial {
		t.Fatalf("status %v, want DeliveredPartial", res.Status)
	}
}

// TestReliableConfigRejects: a config RunReliable cannot honour is refused
// before the run, naming what is wrong — a negative quorum too, as the
// simulated and the daemon engines refuse theirs, not run as "every
// destination".
func TestReliableConfigRejects(t *testing.T) {
	s := reliableSession(t, chainTree(3), payloadBytes(100))
	for _, tc := range []struct {
		name, want string
		edit       func(*ReliableConfig)
	}{
		{"rto-cap-below-base", "invalid RTO", func(c *ReliableConfig) { c.RTOMax = c.RTO / 2 }},
		{"no-retries", "retry budget 0", func(c *ReliableConfig) { c.RetryBudget = 0 }},
		{"twice-crashed", "crashed more than once", func(c *ReliableConfig) { c.Faults.Crashes = []fault.Crash{{Host: 1}, {Host: 1}} }},
		{"crash-outside-tree", "crash of host 99999 outside the tree", func(c *ReliableConfig) { c.Faults.Crashes = []fault.Crash{{Host: 99999}} }},
		{"link-kill", "fault plan field Kills (link) is not supported", func(c *ReliableConfig) { c.Faults.Kills = []fault.Kill{{Link: 3}} }},
		{"pair-kill-outside-tree", "kill of host pair 1->7 outside the tree", func(c *ReliableConfig) {
			c.Faults.Kills = []fault.Kill{{Link: fault.Pair, From: 1, To: 7}}
		}},
		{"negative-quorum", "negative quorum -1", func(c *ReliableConfig) { c.Quorum = -1 }},
		{"negative-timeout", "negative timeout -1s", func(c *ReliableConfig) { c.Live.Timeout = -time.Second }},
	} {
		cfg := fastReliable()
		tc.edit(&cfg)
		if res, err := RunReliable(s, cfg); res != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunReliable = %v, %v; want a refusal naming %q", tc.name, res, err, tc.want)
		}
	}
}

// A confirmed root crash fails the operation with RootCrashed.
func TestReliableRootCrash(t *testing.T) {
	tr := chainTree(4)
	payload := payloadBytes(5000) // enough packets to still be in flight
	s := reliableSession(t, tr, payload)
	cfg := fastReliable()
	cfg.Faults = fault.Plan{Seed: 2, MaxJitter: 3 * time.Millisecond, Crashes: []fault.Crash{{Host: 0, At: 2000}}}
	_, err := RunReliable(s, cfg)
	var ce *reliable.CrashError
	if !errors.As(err, &ce) || !ce.RootCrashed {
		t.Fatalf("err = %v, want RootCrashed CrashError", err)
	}
}

// findHost returns a completed destination's bytes.
func findHost(res *ReliableResult, v int) ([]byte, bool) {
	rec, ok := res.Hosts[v]
	if !ok || rec.Data == nil {
		return nil, false
	}
	return rec.Data, true
}

func TestReliableConfigValidation(t *testing.T) {
	tr := chainTree(3)
	s := Session{Tree: tr, Packets: mustPacketize(t, 1, 0, payloadBytes(10)), MsgID: 1}
	bad := []ReliableConfig{
		{},                  // zero RTO
		{RTO: 1, RTOMax: 0}, // cap below base
		{RTO: 1, RTOMax: 1}, // zero budgets
		func() ReliableConfig { // bad crash window
			c := DefaultReliableConfig()
			c.Faults.Crashes = []fault.Crash{{Host: 1, At: 5, RecoverAt: 3}}
			return c
		}(),
		func() ReliableConfig { // crash outside the tree
			c := DefaultReliableConfig()
			c.Faults.Crashes = []fault.Crash{{Host: 99, At: 5}}
			return c
		}(),
		func() ReliableConfig { // invalid fault plane
			c := DefaultReliableConfig()
			c.Faults.DropRate = 1.5
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := RunReliable(s, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
