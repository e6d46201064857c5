package reliable

import (
	"repro/internal/membership"
	"repro/internal/message"
)

// This file is the crash-tolerance plane of the machine: host crash and
// recovery faults, the heartbeat/failure-detector loop, and the view-change
// reactions (epoch fencing, and the brain's orphan adoption and rejoin
// replay). None of it runs unless the fault plan schedules crashes —
// mc.det stays nil, the epoch stays 0, and the data plane replays its
// crash-free behavior event-for-event.

// heartbeatEvery is the membership plane's beat period (us): each host's
// beat, and the root's detector tick.
const heartbeatEvery = 5.0

// scheduleBeats drives host v's heartbeat loop: every heartbeatEvery it
// emits one control-plane heartbeat toward the root (unless the host is
// down), which reaches the detector after the contention-free control
// latency. Heartbeats are not subject to ACK-loss sampling: perturbing the
// loss stream would make crash runs diverge from their crash-free
// counterparts beyond the crash itself, and a lossy detector would add
// false positives the paper's model has no use for.
func (mc *machine) scheduleBeats(v int) {
	mc.eng.At(mc.eng.Now()+heartbeatEvery, func() {
		if mc.finished {
			return
		}
		now := mc.eng.Now()
		if !mc.faults.HostDown(v, now) {
			mc.eng.At(now+mc.ctlDelay(v, mc.root), func() {
				if mc.finished {
					return
				}
				mc.processEvents(mc.det.Heartbeat(v, mc.eng.Now()))
			})
		}
		mc.scheduleBeats(v)
	})
}

// tickLoop advances the detector at the root every heartbeat period, so
// suspicion and confirmation deadlines fire even when every remote host
// has gone silent. The root observes itself trivially.
func (mc *machine) tickLoop() {
	mc.eng.At(mc.eng.Now()+heartbeatEvery, func() {
		if mc.finished {
			return
		}
		mc.processEvents(mc.det.Heartbeat(mc.root, mc.eng.Now()))
		mc.tickLoop()
	})
}

// processEvents applies a batch of detector transitions and records the
// new view when the epoch advanced. Epoch bookkeeping always applies —
// the detector already advanced — but once the run finished the
// structural reactions (adoption, rejoin replay) are skipped: they would
// only schedule pointless traffic on a completed operation.
func (mc *machine) processEvents(evs []membership.Event) {
	for _, ev := range evs {
		mc.epoch = ev.Epoch
		if mc.finished {
			continue
		}
		switch h := ev.Host; ev.Kind {
		case membership.Confirmed:
			if h == mc.root {
				continue // the root is the observer; it cannot be confirmed crashed
			}
			// The epoch advanced, fencing all in-flight traffic; the brain cuts
			// h out of the tree and adopts its orphans, and h's NI state goes.
			mc.brain.Confirmed(h)
			mc.wipe(mc.nodes[h])
			mc.adopted()
		case membership.Rejoined:
			// A recovered host the group had confirmed crashed is grafted back
			// with the full message replayed from the root: its buffers are
			// empty, and packets its old parent saw ACKed would otherwise be
			// lost forever.
			mc.brain.Rejoined(h)
			mc.adopted()
		}
	}
	if n := len(mc.res.Views); n > 0 && mc.det.Epoch() > mc.res.Views[n-1].Epoch {
		mc.res.Views = append(mc.res.Views, mc.det.View())
	}
}

// adopted follows a crash-driven brain decision: its new edges get their
// replay, and the run may have resolved.
func (mc *machine) adopted() {
	if mc.flush() {
		mc.res.Adoptions++
	}
	mc.checkFinished()
}

// onCrash applies a host-crash fault: the host's entire NI state — send
// queue, in-flight copies, reassembly progress — is dropped. A root crash
// fails the whole multicast. The detector is NOT told: the group must
// discover the crash through silence.
func (mc *machine) onCrash(h int) {
	mc.faults.NoteCrash()
	n := mc.nodes[h]
	if mc.finished {
		// Reachable only after a root crash failed the whole operation
		// (checkFinished defers completion past the last scheduled fault).
		// A completion timestamped after this instant (receive landed,
		// host-level copy still in progress) never actually finished on
		// the crashing host: the record and the payload die with it.
		if t, ok := mc.res.HostDone[h]; ok && n != nil && h != mc.root && t > mc.eng.Now() {
			mc.forget(n)
		}
		return
	}
	if h == mc.root {
		mc.rootCrashed = true
		mc.finished = true
		return
	}
	if n != nil {
		mc.forget(n)
		mc.wipe(n)
	}
}

// forget drops what n received: reassembly progress and completion.
func (mc *machine) forget(n *node) {
	n.reasm = message.NewReassembler()
	n.have = make([]bool, mc.m)
	n.haveCount = 0
	delete(mc.res.HostDone, n.id)
}

// wipe drops n's send engine: its queue and its in-flight copies, whose
// completions become no-ops.
func (mc *machine) wipe(n *node) {
	n.inc++
	n.inFlight = 0
	n.queue = nil
}

// onRecover applies a host-recovery fault. If the group already confirmed
// the crash, nothing happens here — the host's resumed heartbeats trigger
// a Rejoined view change, which re-admits it. If the outage was shorter
// than suspicion+confirmation the group never saw it, but the host's
// buffers are empty while its parent believes ACKed packets are delivered;
// a silent fresh re-graft under its nearest live ancestor makes that
// parent replay everything it holds.
func (mc *machine) onRecover(h int) {
	mc.faults.NoteRecovery()
	if mc.finished || h == mc.root || mc.nodes[h] == nil || !mc.Member(h) {
		return
	}
	mc.brain.Graft(mc.brain.LiveAncestor(h), []int{h})
	mc.adopted()
}

// checkFinished marks the run finished once every destination is resolved,
// which stops the heartbeat and detector loops. Only meaningful (and only
// called) when the membership plane is armed; crash-free runs terminate by
// draining the event heap as before.
//
// Completion is deferred until the fault plan's last crash or recovery
// instant has passed: a crash landing after every destination resolved
// (e.g. in the window between a packet acceptance and the host-level copy
// completing) must be handled by the live machinery — detector, adoption,
// re-graft — not dropped on the floor by a run that already declared
// itself done.
func (mc *machine) checkFinished() {
	if mc.det == nil || mc.finished {
		return
	}
	now := mc.eng.Now()
	if now <= mc.lastFaultAt() {
		return
	}
	for v, n := range mc.nodes {
		if v != mc.root && !mc.resolved(n, now) {
			return
		}
	}
	mc.finished = true
}

// resolved reports whether destination n needs no further protocol work:
// it completed, was abandoned, or the group confirmed it crashed for
// good. A confirmed host with a recovery in the fault plan stays
// unresolved — its resumed heartbeats will rejoin it, however long after
// the recovery instant the next beat lands — so the run cannot declare
// itself done in the window between recovery and rejoin. The protocol is
// otherwise not clairvoyant: a physically-down host is unresolved until
// the detector confirms it.
func (mc *machine) resolved(n *node, now float64) bool {
	if mc.brain.Abandoned(n.id) {
		return true
	}
	if n.haveCount == mc.m && !mc.faults.HostDown(n.id, now) {
		return true
	}
	return mc.det.Phase(n.id) == membership.Crashed && !mc.everRecovers(n.id)
}

// lastFaultAt returns the instant of the fault plan's final scheduled
// crash or recovery event.
func (mc *machine) lastFaultAt() float64 {
	t := 0.0
	for _, c := range mc.faults.Crashes() {
		if c.At > t {
			t = c.At
		}
		if c.RecoverAt > t {
			t = c.RecoverAt
		}
	}
	return t
}

// everRecovers reports whether host h's crash has a scheduled recovery.
func (mc *machine) everRecovers(h int) bool {
	for _, c := range mc.faults.Crashes() {
		if c.Host == h {
			return c.RecoverAt > 0
		}
	}
	return false
}
