package check

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/workload"
)

// liveStep maps the instance's abstract crash steps onto the live
// runtime's clock. With the pacing jitter below, a whole message
// takes a few to tens of milliseconds to flood the tree, so steps in the
// generator's 1..24 window (2..48 ms) land mid-protocol exactly as they
// do on the simulator clock. Short crash-recovery windows heal through
// retransmission alone; crash-stops ride the failure detector.
const liveStep = 2 * time.Millisecond

// liveFaults derives the fault plan of the faulty live arm, crash schedule
// included, from the instance's. The drop rate is the instance's own; corruption,
// reordering and ACK loss are decorrelated draws from the fault seed, so
// a shrunk instance replays its exact chaos. Every arm carries at least a
// little send jitter: it keeps the FaultyTransport decorator on the hot
// path even when the plane is otherwise lossless (the identity invariant
// then proves the decorator itself is transparent), and on crash arms it
// paces delivery so scheduled crashes interleave with live traffic.
func (in Instance) liveFaults() fault.Plan {
	rng := workload.NewRNG(in.FaultSeed ^ 0xc4a0_5f17_ba11_ad01)
	f := fault.Plan{
		Seed:      in.FaultSeed ^ 0x5eed_fa07,
		MaxJitter: 150 * time.Microsecond,
	}
	if in.DropRate > 0 {
		f.DropRate = in.DropRate
		f.CorruptRate = 0.04 * rng.Float64()
		f.ReorderRate = 0.15 * rng.Float64()
		f.AckDropRate = 0.08 * rng.Float64()
	}
	if len(in.Crashes) > 0 {
		f.MaxJitter = 500*time.Microsecond + time.Duration(rng.Intn(1000))*time.Microsecond
	}
	f.Crashes = in.crashes(0, float64(liveStep/time.Microsecond))
	return f
}

// liveReliableConfig is the harness configuration of the faulty live arm:
// RTOs fast enough that a 250-case sweep on the wall clock stays in
// seconds, a retry budget deep enough that a spurious orphan at the harness
// loss rates (p <= 0.15 plus <= 0.04 corruption) is a ~(0.2)^21 event, and
// quorum 1 so a crash instance reports partial delivery instead of a quorum
// error — the survivor-bytes invariant judges the survivors directly.
func (in Instance) liveReliableConfig() live.ReliableConfig {
	cfg := live.DefaultReliableConfig()
	cfg.Live = in.liveConfig()
	cfg.Faults = in.liveFaults()
	cfg.RTO = 8 * time.Millisecond
	cfg.RTOMax = 64 * time.Millisecond
	cfg.RetryBudget = 20
	// Every repair regrafts — an exhausted edge under loss, a crash's
	// adoption, a rejoin's re-admission — and that churn is harmless as
	// long as it never tips a destination into abandonment, so the bound is
	// generous.
	cfg.MaxRegrafts = 64
	cfg.Quorum = 1
	// In process the crash schedule, not silence, says which hosts are up,
	// so these windows time only a down host's silence: a crash-recovery
	// window shorter than them heals through its rejoin alone, a longer one
	// is confirmed first. Every crash-stop still confirms in well under
	// 100 ms, so a 250-case sweep stays in seconds.
	cfg.Heartbeat = live.HeartbeatParams{
		SuspectAfter: 40 * time.Millisecond,
		ConfirmAfter: 30 * time.Millisecond,
	}
	return cfg
}

// liveFaultyRun executes (once per world) the instance's plan on the
// reliable live engine, in virtual time, under the derived chaos plane:
// bit-exact by seed. All four live-faulty invariants read this one run.
func (w *world) liveFaultyRun() (*live.ReliableResult, error) {
	w.liveRelOnce.Do(func() {
		payload := w.inst.livePayload()
		pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
		if err != nil {
			w.liveRelErr = fmt.Errorf("packetize: %v", err)
			return
		}
		w.liveRelRes, w.liveRelErr = live.RunVirtual(
			live.Session{Tree: w.plan.Tree, Packets: pkts, MsgID: 1},
			w.inst.liveReliableConfig())
	})
	return w.liveRelRes, w.liveRelErr
}

// crashStopped returns the set of destinations scheduled to crash and
// never recover — the hosts no liveness or delivery claim applies to.
func (in Instance) crashStopped() map[int]bool {
	out := map[int]bool{}
	for _, cr := range in.Crashes {
		if cr.RecoverStep == 0 {
			out[cr.Host] = true
		}
	}
	return out
}

// checkLiveFaultyTerminates is the liveness arm: every harness fault plan
// — loss, corruption, reordering, ACK loss, crash-stops, recoveries —
// must drive the shipped engine to a clean verdict, never into the
// watchdog. At the harness retry budget a typed delivery failure is
// admissible only in the one legitimate case: every destination
// crash-stopped, so quorum 1 is unreachable.
func checkLiveFaultyTerminates(w *world) error {
	res, err := w.liveFaultyRun()
	if res == nil {
		return fmt.Errorf("faulty live run produced no result: %v", err)
	}
	var we *live.WatchdogError
	if errors.As(err, &we) {
		return fmt.Errorf("faulty live run stalled into the watchdog: %v", err)
	}
	if err != nil {
		survivors := 0
		stopped := w.inst.crashStopped()
		for _, d := range w.inst.Dests {
			if !stopped[d] {
				survivors++
			}
		}
		if survivors == 0 && errors.Is(err, reliable.ErrCrash) {
			return nil // all destinations crash-stopped: quorum legitimately missed
		}
		return fmt.Errorf("faulty live run failed (status %v, orphaned %v, crashed %v): %v",
			res.Status, res.Orphaned, res.Crashed, err)
	}
	if res.Status != reliable.Delivered && res.Status != reliable.DeliveredPartial {
		return fmt.Errorf("nil error but status %v", res.Status)
	}
	if res.Wall <= 0 {
		return fmt.Errorf("run reports non-positive wall clock %v", res.Wall)
	}
	return nil
}

// checkLossPatternAgreement holds the two worlds to one loss model: under
// a loss-only plan, every edge incarnation draws its n-th transmission
// from the same stream in the virtual-time machine and in the shipped
// runtime's virtual time, so both drop the same ones among the first j, j the
// smaller of the two send counts (capped at the 64 a pattern records).
// Every send must have drawn, and every tree edge's first incarnation
// must appear in both.
func checkLossPatternAgreement(w *world) error {
	p := w.inst.DropRate
	if p == 0 {
		return nil
	}
	fp := fault.Plan{Seed: w.inst.FaultSeed, DropRate: p}
	rcfg := reliableConfig()
	vm, err := reliable.Deliver(w.sys, w.plan, w.inst.payload(), rcfg, fp)
	if err != nil {
		return fmt.Errorf("machine run failed: %v", err)
	}
	pkts, err := message.Packetize(rcfg.MsgID, w.plan.Spec.Source, w.inst.payload(), rcfg.Params.PacketBytes)
	if err != nil {
		return fmt.Errorf("packetize: %v", err)
	}
	cfg := w.inst.liveReliableConfig()
	cfg.Faults = fp
	lv, err := live.RunVirtual(live.Session{Tree: w.plan.Tree, Packets: pkts, MsgID: rcfg.MsgID}, cfg)
	if lv == nil {
		return fmt.Errorf("live run produced no result: %v", err)
	}
	// Every transmission draws: a send that bypassed its stream would
	// leave the count short.
	for _, r := range []struct {
		world  string
		sends  int
		losses []fault.Pattern
	}{{"machine", vm.Sends, vm.Losses}, {"live runtime", lv.Sends, lv.Losses}} {
		drawn := 0
		for _, l := range r.losses {
			drawn += l.Sent
		}
		if drawn != r.sends {
			return fmt.Errorf("the %s drew %d loss decisions for %d sends", r.world, drawn, r.sends)
		}
	}
	onWire := map[[3]int]fault.Pattern{}
	for _, l := range lv.Losses {
		onWire[[3]int{l.From, l.To, l.Gen}] = l
	}
	first := map[[2]int]bool{}
	for _, m := range vm.Losses {
		l, ok := onWire[[3]int{m.From, m.To, m.Gen}]
		if !ok {
			continue
		}
		if m.Gen == 0 {
			first[[2]int{m.From, m.To}] = true
		}
		mask := ^uint64(0)
		if j := min(m.Sent, l.Sent); j < 64 {
			mask = 1<<j - 1
		}
		if (m.Lost^l.Lost)&mask != 0 {
			return fmt.Errorf("edge %d->%d incarnation %d: the machine lost %b of its %d sends, the live runtime %b of its %d",
				m.From, m.To, m.Gen, m.Lost, m.Sent, l.Lost, l.Sent)
		}
	}
	for _, e := range w.plan.Tree.Edges() {
		if !first[[2]int{e.Parent, e.Child}] {
			return fmt.Errorf("edge %d->%d: first incarnation missing from the machine's or the live runtime's loss patterns", e.Parent, e.Child)
		}
	}
	return nil
}

// checkLiveSurvivorBytes is the safety arm: every destination that is not
// scheduled to crash-stop — including hosts that crash and rejoin
// amnesiac — ends the run holding the byte-exact payload, whatever the
// chaos plane did in between.
func checkLiveSurvivorBytes(w *world) error {
	res, err := w.liveFaultyRun()
	if res == nil {
		return fmt.Errorf("faulty live run produced no result: %v", err)
	}
	payload := w.inst.livePayload()
	stopped := w.inst.crashStopped()
	for _, d := range w.inst.Dests {
		if stopped[d] {
			continue
		}
		rec := res.Hosts[d]
		if rec == nil || rec.Data == nil {
			return fmt.Errorf("survivor %d undelivered (status %v, epoch %d, orphaned %v, err %v)",
				d, res.Status, res.Epoch, res.Orphaned, err)
		}
		if !bytes.Equal(rec.Data, payload) {
			return fmt.Errorf("survivor %d reassembled %d bytes, want the %d-byte payload",
				d, len(rec.Data), len(payload))
		}
		if rec.DoneAt <= 0 {
			return fmt.Errorf("survivor %d delivered but has no completion timestamp", d)
		}
	}
	return nil
}

// checkLiveEpochMonotone pins the epoch fencing of the live membership
// plane: unarmed runs carry no epoch state at all; armed runs accept
// packets under per-host nondecreasing epochs within [1, final], and
// install strictly advancing views starting from the initial epoch-1
// view. (Monotonicity is per host: wall-clock timestamps taken in
// different goroutines are not totally ordered against the shared epoch
// register, unlike the simulator's virtual clock.)
func checkLiveEpochMonotone(w *world) error {
	res, err := w.liveFaultyRun()
	if res == nil {
		return fmt.Errorf("faulty live run produced no result: %v", err)
	}
	if len(w.inst.Crashes) == 0 {
		if res.Epoch != 0 || len(res.Views) != 0 || len(res.Accepts) != 0 {
			return fmt.Errorf("unarmed run leaked epoch state: epoch=%d views=%d accepts=%d",
				res.Epoch, len(res.Views), len(res.Accepts))
		}
		return nil
	}
	if res.Epoch < 1 {
		return fmt.Errorf("armed run ended at epoch %d < 1", res.Epoch)
	}
	last := map[int]int{}
	for i, a := range res.Accepts {
		if a.Epoch < 1 || a.Epoch > res.Epoch {
			return fmt.Errorf("accept %d (host %d, t=%v) carries epoch %d outside [1,%d]",
				i, a.Host, a.At, a.Epoch, res.Epoch)
		}
		if prev, ok := last[a.Host]; ok && a.Epoch < prev {
			return fmt.Errorf("accept %d: host %d regressed to epoch %d after epoch %d",
				i, a.Host, a.Epoch, prev)
		}
		last[a.Host] = a.Epoch
	}
	for i, v := range res.Views {
		if i == 0 && v.Epoch != 1 {
			return fmt.Errorf("first installed view has epoch %d, want 1", v.Epoch)
		}
		if i > 0 && v.Epoch <= res.Views[i-1].Epoch {
			return fmt.Errorf("view %d has epoch %d after epoch %d: views must advance strictly",
				i, v.Epoch, res.Views[i-1].Epoch)
		}
	}
	if len(res.Views) == 0 {
		return fmt.Errorf("armed run installed no views")
	}
	if final := res.Views[len(res.Views)-1].Epoch; final != res.Epoch {
		return fmt.Errorf("final view epoch %d != result epoch %d", final, res.Epoch)
	}
	return nil
}

// checkLiveFaultyLosslessIdentity is the p=0 differential: on lossless,
// crash-free instances the chaos-wrapped reliable engine must reproduce
// the plain live engine exactly — byte-identical reassembly, identical
// per-host admission order and parent edges, identical receive counts
// and net send counts, zero fencing, zero injected faults. Send jitter
// is active in the wrapped run, so this also proves the decorator
// perturbs nothing but timing.
//
// One wall-clock allowance: retransmissions are NOT required to be zero.
// The RTO timers are real, so a scheduler stall longer than the harness
// RTO (routine when CI oversubscribes a small box with -race worker
// goroutines) fires a spurious resend of a frame whose ACK was merely
// late. Those resends are provably inert — with p=0 the original always
// arrived, so every one is suppressed as a duplicate and the novel
// structure the identity compares is untouched. The check therefore
// pins the inertness (duplicates account for the retransmits, and net
// injections match the plain engine) instead of a timing-dependent
// zero.
func checkLiveFaultyLosslessIdentity(w *world) error {
	if w.inst.DropRate > 0 || len(w.inst.Crashes) > 0 {
		return nil
	}
	res, err := w.liveFaultyRun()
	if res == nil || err != nil {
		return fmt.Errorf("zero-fault reliable live run failed: %v", err)
	}
	payload := w.inst.livePayload()
	pkts, err := message.Packetize(1, w.plan.Spec.Source, payload, livePacketBytes)
	if err != nil {
		return fmt.Errorf("packetize: %v", err)
	}
	plain, err := live.Run([]live.Session{{Tree: w.plan.Tree, Packets: pkts, MsgID: 1}}, w.inst.liveConfig())
	if err != nil {
		return fmt.Errorf("plain live reference run failed: %v", err)
	}
	if res.Fenced != 0 {
		return fmt.Errorf("zero-fault run fenced %d frame(s): no stale epochs can exist", res.Fenced)
	}
	if res.Duplicates > res.Retransmits {
		return fmt.Errorf("zero-fault run suppressed %d duplicates with only %d retransmits: frames were duplicated in transit",
			res.Duplicates, res.Retransmits)
	}
	if res.Faults != (fault.Stats{}) {
		return fmt.Errorf("zero-fault chaos plane injected faults: %+v", res.Faults)
	}
	if res.Sends-res.Retransmits != plain.Sends {
		return fmt.Errorf("reliable engine injected %d novel copies (%d sends - %d retransmits), plain engine %d",
			res.Sends-res.Retransmits, res.Sends, res.Retransmits, plain.Sends)
	}
	pr := plain.Sessions[0]
	for _, v := range w.plan.Tree.Nodes() {
		rec, ref := res.Hosts[v], pr.Hosts[v]
		if rec == nil || ref == nil {
			return fmt.Errorf("host %d missing from a result (reliable %v, plain %v)", v, rec != nil, ref != nil)
		}
		if rec.Sends < ref.Sends || rec.Recvs != ref.Recvs {
			return fmt.Errorf("host %d sends/recvs %d/%d, plain engine %d/%d",
				v, rec.Sends, rec.Recvs, ref.Sends, ref.Recvs)
		}
		if len(rec.Arrivals) != len(ref.Arrivals) {
			return fmt.Errorf("host %d admitted %d frames, plain engine %d", v, len(rec.Arrivals), len(ref.Arrivals))
		}
		for i, a := range rec.Arrivals {
			if a != ref.Arrivals[i] {
				return fmt.Errorf("host %d arrival %d is %+v, plain engine %+v", v, i, a, ref.Arrivals[i])
			}
		}
		if !bytes.Equal(rec.Data, ref.Data) {
			return fmt.Errorf("host %d reassembled %d bytes, plain engine %d: payloads differ",
				v, len(rec.Data), len(ref.Data))
		}
	}
	return nil
}
