package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestValidate holds the one Validate to the rejection rows of both
// planes it replaced — the simulator's and the live fabric's — plus the
// kill shapes only a shared plan can get wrong.
func TestValidate(t *testing.T) {
	for i, p := range []Plan{
		{DropRate: 1},
		{DropRate: math.NaN()},
		{CorruptRate: -0.1},
		{AckDropRate: 1.5},
		{ReorderRate: 2},
		{MaxJitter: -time.Millisecond},
		{Stalls: []Stall{{Host: -1, Until: 1000}}},
		{Stalls: []Stall{{Host: 0, From: 5, Until: 5}}},
		{Stalls: []Stall{{Host: 0, From: -1, Until: 2}}},
		{Kills: []Kill{{Link: -2}}},
		{Kills: []Kill{{Link: 3, At: -1}}},
		{Kills: []Kill{{Link: 3, From: 1, To: 2}}},
		{Kills: []Kill{{Link: Pair, From: 1, To: 1}}},
		{Kills: []Kill{{Link: Pair, From: -1, To: 1}}},
		{Kills: []Kill{{Link: Pair, From: 0, To: 1, At: -1e6}}},
		{Crashes: []Crash{{Host: -1}}},
		{Crashes: []Crash{{Host: 1, At: -1}}},
		{Crashes: []Crash{{Host: 1, At: 5, RecoverAt: 3}}},
		{Crashes: []Crash{{Host: 1, At: 5, RecoverAt: 5}}},
		{Crashes: []Crash{{Host: 1}, {Host: 1, At: 9}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: %+v accepted", i, p)
		}
		if _, err := p.Arm(); err == nil {
			t.Errorf("case %d: Arm accepted %+v", i, p)
		}
	}
	ok := Plan{Seed: 1, DropRate: 0.5, CorruptRate: 0.1, AckDropRate: 0.2, ReorderRate: 0.1,
		MaxJitter: time.Millisecond,
		Stalls:    []Stall{{Host: 2, From: 0, Until: 1000}},
		Kills:     []Kill{{Link: 0, At: 40}, {Link: Pair, From: 0, To: 1, At: 1000}},
		Crashes:   []Crash{{Host: 3, At: 10}, {Host: 4, At: 10, RecoverAt: 20}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestAdmit: an engine is refused, by type and naming the field, exactly
// the fields it does not honour; then links are checked against the
// network, crashed hosts and killed pairs against the tree.
func TestAdmit(t *testing.T) {
	all := Drop | Corrupt | AckDrop | Reorder | Jitter | Stalls | LinkKills | PairKills | Crashes
	tree := func(h int) bool { return h >= 0 && h < 16 }
	for _, c := range []struct {
		plan  Plan
		field string
	}{
		{Plan{DropRate: 0.1}, "DropRate"},
		{Plan{CorruptRate: 0.1}, "CorruptRate"},
		{Plan{AckDropRate: 0.1}, "AckDropRate"},
		{Plan{ReorderRate: 0.1}, "ReorderRate"},
		{Plan{MaxJitter: 1}, "MaxJitter"},
		{Plan{Stalls: []Stall{{Until: 1}}}, "Stalls"},
		{Plan{Kills: []Kill{{Link: 4}}}, "Kills (link)"},
		{Plan{Kills: []Kill{{Link: Pair, From: 1, To: 2}}}, "Kills (host pair)"},
		{Plan{Crashes: []Crash{{Host: 1}}}, "Crashes"},
	} {
		if err := c.plan.Admit("e", all, 95, tree); err != nil {
			t.Errorf("%s: refused by an engine honouring everything: %v", c.field, err)
		}
		var re *RefusedError
		err := c.plan.Admit("e", 0, 95, tree)
		if !errors.As(err, &re) || re.Field != c.field || re.Engine != "e" {
			t.Errorf("%s: refusal %v, want a *RefusedError naming it", c.field, err)
		}
	}
	if err := (Plan{Seed: 9}).Admit("e", 0, 0, nil); err != nil {
		t.Errorf("a seed alone injects nothing, yet: %v", err)
	}
	for _, c := range []struct {
		plan Plan
		want string
	}{
		{Plan{Kills: []Kill{{Link: 94}}}, ""},
		{Plan{Kills: []Kill{{Link: 95}}}, "kill link 95 out of range (network has links 0..94)"},
		{Plan{Kills: []Kill{{Link: 99999}}}, "kill link 99999 out of range"},
		{Plan{Kills: []Kill{{Link: Pair, From: 3, To: 40}}}, "kill of host pair 3->40 outside the tree"},
		{Plan{Crashes: []Crash{{Host: 15}}}, ""},
		{Plan{Crashes: []Crash{{Host: 40}}}, "crash of host 40 outside the tree"},
		{Plan{Crashes: []Crash{{Host: 99999}}}, "crash of host 99999 outside the tree"},
	} {
		err := c.plan.Admit("e", all, 95, tree)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v: Admit = %v, want %q", c.plan, err, c.want)
		}
	}
}

// TestStallDelay: one host's windows are merged where they overlap or
// touch, and an injection inside one waits to its end.
func TestStallDelay(t *testing.T) {
	s, err := Plan{Stalls: []Stall{{0, 5, 7}, {0, 1, 3}, {0, 2, 4}, {0, 4, 5}, {0, 10, 11}, {1, 30, 35}}}.Arm()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(s.stalls[0]); got != "[{0 1 7} {0 10 11}]" {
		t.Errorf("host 0 windows %s, want [1,7) and [10,11)", got)
	}
	want := 0.0
	for _, c := range []struct {
		host       int
		t, waitFor float64
	}{
		{0, 0, 0}, {0, 1, 6}, {0, 3, 4}, {0, 6.5, 0.5}, {0, 7, 0}, {0, 10, 1}, {0, 11, 0},
		{1, 29, 0}, {1, 30, 5}, {1, 34, 1}, {1, 35, 0}, {2, 31, 0},
	} {
		if got := s.StallDelay(c.host, c.t); got != c.waitFor {
			t.Errorf("host %d at %v waits %v, want %v", c.host, c.t, got, c.waitFor)
		}
		want += c.waitFor
	}
	if got := s.Stats().StallWait; got != want {
		t.Errorf("stall wait %v, want %v", got, want)
	}
	var none *State
	if none.StallDelay(0, 5) != 0 {
		t.Error("a nil state must not stall")
	}
}

// fates renders n transmissions of 16 bytes drawn from st: "." intact,
// "x" dropped, "cK" corrupted at byte K.
func fates(st Stream, n int) string {
	var out []string
	for i := 0; i < n; i++ {
		switch drop, bad := st.Transmit(16); {
		case drop:
			out = append(out, "x")
		case bad >= 0:
			out = append(out, fmt.Sprintf("c%d", bad))
		default:
			out = append(out, ".")
		}
	}
	return strings.Join(out, " ")
}

// TestStreamPins holds the live fabric's loss pattern still: the fates of
// the first transmissions of edge 2->3's first two incarnations, and of
// host 5's first acknowledgments, as the wall-clock chaos plane drew them
// before the plane moved here — recorded by sending frames through that
// plane's transports, under drop 0.3, corruption 0.3 and ACK loss 0.5.
func TestStreamPins(t *testing.T) {
	for _, c := range []struct {
		seed             uint64
		gen0, gen1, acks string
	}{
		{7,
			". . . c8 x . x . x . . x . c9 . x . c1 x . c10 x . .",
			"x . x . x x c15 x x . . . x c9 . . . . x . c2 . . x",
			"xx...xxx..x.xxxx.x..xx.x"},
		{1<<63 + 5,
			". . c0 x c8 . x x . . . . x x x c4 x x x . . . . c0",
			"x c4 c0 x x . x x . c14 x . . . x x c2 . x x . . . x",
			"...xx.x....xx..xxxxx..x."},
	} {
		s, err := Plan{Seed: c.seed, DropRate: 0.3, CorruptRate: 0.3, AckDropRate: 0.5}.Arm()
		if err != nil {
			t.Fatal(err)
		}
		if got := fates(s.Edge(2, 3, 0), 24); got != c.gen0 {
			t.Errorf("seed %d, 2->3 generation 0: %s, want %s", c.seed, got, c.gen0)
		}
		if got := fates(s.Edge(2, 3, 1), 24); got != c.gen1 {
			t.Errorf("seed %d, 2->3 generation 1: %s, want %s", c.seed, got, c.gen1)
		}
		acks, got := s.Acks(5), ""
		for i := 0; i < 24; i++ {
			if acks.AckLost() {
				got += "x"
			} else {
				got += "."
			}
		}
		if got != c.acks {
			t.Errorf("seed %d, host 5 ACKs: %s, want %s", c.seed, got, c.acks)
		}
	}
	var none *State
	if st := none.Edge(2, 3, 0); fates(st, 4) != ". . . ." {
		t.Error("a nil state's stream lost something")
	}
}

// TestStreamsConcurrently: stream owners on their own goroutines draw
// what the same streams draw alone, while the shared counters take every
// draw and Stats is read throughout (run it under -race).
func TestStreamsConcurrently(t *testing.T) {
	plan := Plan{Seed: 3, DropRate: 0.2, CorruptRate: 0.1, AckDropRate: 0.3, ReorderRate: 0.1, MaxJitter: time.Microsecond}
	const owners, draws = 6, 2000
	run := func(s *State, i int) (Pattern, int) {
		st, acks, lost := s.Edge(i, i+1, i%2), s.Acks(i), 0
		for j := 0; j < draws; j++ {
			st.Transmit(64)
			st.Delay()
			st.Hold()
			if acks.AckLost() {
				lost++
			}
		}
		return st.Pattern(), lost
	}
	alone, _ := plan.Arm()
	var want []Pattern
	for i := 0; i < owners; i++ {
		p, _ := run(alone, i)
		want = append(want, p)
	}
	s, _ := plan.Arm()
	got := make([]Pattern, owners)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Stats()
			}
		}
	}()
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = run(s, i)
		}(i)
	}
	wg.Wait()
	close(stop)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("owner %d drew %+v concurrently, %+v alone", i, got[i], want[i])
		}
	}
	if a, b := s.Stats(), alone.Stats(); a != b || a.Dropped == 0 || a.AcksDropped == 0 || a.Reordered == 0 {
		t.Errorf("concurrent stats %+v, alone %+v", a, b)
	}
}
