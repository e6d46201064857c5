package membership

import (
	"reflect"
	"testing"
)

func det(t *testing.T, members []int) *Detector {
	t.Helper()
	d, err := New(DefaultConfig(), members, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SuspectAfter: 16, ConfirmAfter: 0},
		{SuspectAfter: 16, ConfirmAfter: 12, JitterFrac: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if _, err := New(DefaultConfig(), nil, 0); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := New(DefaultConfig(), []int{3, 3}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
}

// TestHealthyGroupNeverChangesView: members that keep heartbeating stay in
// epoch 1 forever.
func TestHealthyGroupNeverChangesView(t *testing.T) {
	d := det(t, []int{0, 1, 2, 3})
	for beat := 1; beat <= 40; beat++ {
		at := float64(beat) * 5
		for h := 0; h < 4; h++ {
			if evs := d.Heartbeat(h, at); len(evs) != 0 {
				t.Fatalf("healthy heartbeat produced events %v", evs)
			}
		}
	}
	v := d.View()
	if v.Epoch != 1 || !reflect.DeepEqual(v.Members, []int{0, 1, 2, 3}) {
		t.Errorf("healthy view drifted: %+v", v)
	}
}

// TestSilenceSuspectsThenConfirms: a silent member is suspected after
// SuspectAfter and confirmed crashed ConfirmAfter later, advancing the
// epoch exactly once.
func TestSilenceSuspectsThenConfirms(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0 // exact deadlines
	d, err := New(cfg, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hosts 0 and 2 heartbeat; host 1 is silent from t=0.
	for beat := 1; beat <= 10; beat++ {
		at := float64(beat) * 5 // every 5 us, well inside SuspectAfter
		d.Heartbeat(0, at)
		evs := d.Heartbeat(2, at)
		for _, e := range evs {
			if e.Host != 1 {
				t.Fatalf("unexpected event for host %d: %+v", e.Host, e)
			}
			switch e.Kind {
			case Suspected:
				if e.At != cfg.SuspectAfter {
					t.Errorf("suspected at %f, want %f", e.At, cfg.SuspectAfter)
				}
			case Confirmed:
				if want := cfg.SuspectAfter + cfg.ConfirmAfter; e.At != want {
					t.Errorf("confirmed at %f, want %f", e.At, want)
				}
				if e.Epoch != 2 {
					t.Errorf("confirmation epoch %d, want 2", e.Epoch)
				}
			}
		}
	}
	v := d.View()
	if v.Epoch != 2 || !reflect.DeepEqual(v.Members, []int{0, 2}) {
		t.Errorf("post-crash view %+v, want epoch 2 members [0 2]", v)
	}
	if d.Phase(1) != Crashed {
		t.Errorf("host 1 phase %v, want crashed", d.Phase(1))
	}
}

// TestSuspectReinstatedWithoutViewChange: a late heartbeat clears
// suspicion without touching the epoch.
func TestSuspectReinstatedWithoutViewChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	d, _ := New(cfg, []int{0, 1}, 0)
	evs := d.Advance(cfg.SuspectAfter + 1)
	if len(evs) != 2 || evs[0].Kind != Suspected || evs[1].Kind != Suspected {
		t.Fatalf("expected two suspicions, got %v", evs)
	}
	if evs := d.Heartbeat(1, cfg.SuspectAfter+2); len(evs) != 0 {
		t.Fatalf("reinstating heartbeat produced events %v", evs)
	}
	if d.Phase(1) != Alive || d.Epoch() != 1 {
		t.Errorf("phase=%v epoch=%d after reinstatement", d.Phase(1), d.Epoch())
	}
}

// TestRejoinAdvancesEpoch: a heartbeat from a confirmed-crashed member
// re-admits it in a fresh epoch.
func TestRejoinAdvancesEpoch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	d, _ := New(cfg, []int{0, 1}, 0)
	for beat := 1; beat <= 10; beat++ {
		d.Heartbeat(0, float64(beat)*5) // drives Advance past host 1's confirmation
	}
	if d.Phase(1) != Crashed || d.Epoch() != 2 {
		t.Fatalf("setup failed: phase=%v epoch=%d", d.Phase(1), d.Epoch())
	}
	evs := d.Heartbeat(1, 60)
	if len(evs) != 1 || evs[0].Kind != Rejoined || evs[0].Epoch != 3 {
		t.Fatalf("rejoin events %v, want one Rejoined at epoch 3", evs)
	}
	v := d.View()
	if v.Epoch != 3 || !reflect.DeepEqual(v.Members, []int{0, 1}) {
		t.Errorf("post-rejoin view %+v", v)
	}
}

// TestJitterDesynchronizesConfirmations: two members silent from the same
// instant confirm at distinct, seeded times; the order is stable across
// runs.
func TestJitterDesynchronizesConfirmations(t *testing.T) {
	run := func() []Event {
		d := det(t, []int{0, 1, 2})
		var evs []Event
		for beat := 1; beat <= 20; beat++ {
			at := float64(beat) * 5
			evs = append(evs, d.Heartbeat(0, at)...)
		}
		return evs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("detector events differ between identical runs")
	}
	var confirms []Event
	for _, e := range a {
		if e.Kind == Confirmed {
			confirms = append(confirms, e)
		}
	}
	if len(confirms) != 2 {
		t.Fatalf("got %d confirmations, want 2: %v", len(confirms), a)
	}
	if confirms[0].At == confirms[1].At {
		t.Errorf("jitter failed to separate confirmation times: both at %f", confirms[0].At)
	}
	if confirms[0].Epoch != 2 || confirms[1].Epoch != 3 {
		t.Errorf("confirmation epochs %d, %d — want 2 then 3", confirms[0].Epoch, confirms[1].Epoch)
	}
}

// TestNextDeadline tracks the earliest pending timeout.
func TestNextDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	d, _ := New(cfg, []int{4, 7}, 10)
	dl, ok := d.NextDeadline()
	if !ok || dl != 10+cfg.SuspectAfter {
		t.Errorf("deadline %f ok=%v, want %f", dl, ok, 10+cfg.SuspectAfter)
	}
	d.Heartbeat(4, 20)
	dl, ok = d.NextDeadline()
	if !ok || dl != 10+cfg.SuspectAfter { // host 7 still pending
		t.Errorf("deadline %f ok=%v, want host 7's %f", dl, ok, 10+cfg.SuspectAfter)
	}
	d.Advance(100) // both eventually confirm (7) or suspect->confirm (4)
	if _, ok := d.NextDeadline(); ok {
		t.Error("deadline reported with every member crashed")
	}
}

// TestWitnessSavesPastDeadline: unlike Heartbeat, a Witness observation is
// not outweighed by silence that already crossed the confirmation
// deadline — the driver's first-hand knowledge wins.
func TestWitnessSavesPastDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	d, _ := New(cfg, []int{0, 1}, 0)
	deep := cfg.SuspectAfter + cfg.ConfirmAfter + 10 // past both deadlines

	// Witness first: the member must survive the subsequent judgment.
	if evs := d.Witness(0, deep); len(evs) != 0 {
		t.Fatalf("witness of an alive member produced events %v", evs)
	}
	evs := d.Advance(deep)
	for _, e := range evs {
		if e.Host == 0 {
			t.Fatalf("witnessed member judged anyway: %v", e)
		}
	}
	if d.Phase(0) != Alive {
		t.Errorf("witnessed member phase %v, want alive", d.Phase(0))
	}
	// Heartbeat in the same position would NOT have saved host 1.
	if d.Phase(1) != Crashed {
		t.Errorf("silent member phase %v, want crashed", d.Phase(1))
	}

	// Witness of a crashed member re-admits it like a rejoin heartbeat.
	epoch := d.Epoch()
	revs := d.Witness(1, deep+1)
	if len(revs) != 1 || revs[0].Kind != Rejoined || revs[0].Epoch != epoch+1 {
		t.Fatalf("witness of a crashed member produced %v, want one Rejoined at epoch %d", revs, epoch+1)
	}
	if d.Phase(1) != Alive {
		t.Errorf("rejoined member phase %v, want alive", d.Phase(1))
	}

	// A stale witness must not regress lastHeard.
	d.Witness(0, deep-100)
	if evs := d.Advance(deep + 2); len(evs) != 0 {
		t.Errorf("stale witness regressed liveness: %v", evs)
	}

	// Unknown hosts are ignored.
	if evs := d.Witness(99, deep); evs != nil {
		t.Errorf("unknown host witness produced %v", evs)
	}
}
