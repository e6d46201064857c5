package sched

import (
	"sync"

	"repro/internal/live/link"
	"repro/internal/message"
)

// ni is one host's persistent network interface: a single goroutine
// draining one inbox into per-session staging queues and serving them
// by deficit round robin. It outlives every session; the registration
// map is the only state shared with the admitter/collector.
type ni struct {
	inbox *link.Inbox

	mu       sync.Mutex
	sessions map[uint32]*hostState
}

func (n *ni) register(hs *hostState) {
	n.mu.Lock()
	n.sessions[hs.h.sess.MsgID] = hs
	n.mu.Unlock()
}

func (n *ni) unregister(id uint32) {
	n.mu.Lock()
	delete(n.sessions, id)
	n.mu.Unlock()
}

func (n *ni) lookup(id uint32) *hostState {
	n.mu.Lock()
	hs := n.sessions[id]
	n.mu.Unlock()
	return hs
}

// run is the NI loop. Unlike live's serve-on-arrival loop it is a fair
// queue: every admitted frame is staged into its session's queue (the
// sender's buffer-slot reservation stays held — staging is part of the
// packet's buffer residency), then sessions are served round-robin with
// a deficit quantum, so an elephant session's backlog cannot starve a
// mouse that shares the interface.
func (n *ni) run(s *Scheduler) {
	defer s.wg.Done()
	var ring []*hostState
	for {
		if len(ring) == 0 {
			f, ok := n.inbox.Recv(s.abort)
			if !ok {
				return
			}
			n.stage(s, f, &ring)
		}
		// Opportunistically drain everything already delivered, so the
		// wire never backs up while sessions are being served.
		for drained := false; !drained; {
			select {
			case f := <-n.inbox.Wire():
				f.Wait()
				n.stage(s, f, &ring)
			default:
				drained = true
			}
		}
		if len(ring) == 0 {
			continue
		}
		hs := ring[0]
		ring = ring[1:]
		if hs.h.aborted.Load() {
			n.drop(s, hs)
			continue
		}
		hs.deficit += s.cfg.Quantum
		for hs.deficit > 0 && len(hs.pending) > 0 {
			st := hs.pending[0]
			hs.pending = hs.pending[1:]
			if !n.serve(s, hs, st) {
				return
			}
			hs.deficit--
			if hs.h.aborted.Load() {
				n.drop(s, hs)
				break
			}
		}
		if len(hs.pending) > 0 {
			ring = append(ring, hs) // still backlogged: to the tail
		} else {
			hs.deficit = 0
			hs.queued = false
		}
	}
}

// drop discards a cancelled session's staged frames, releasing the
// buffer slot each one still holds — this is what breaks a credit
// cycle once the collector expires a wedged session.
func (n *ni) drop(s *Scheduler, hs *hostState) {
	for range hs.pending {
		n.inbox.Release()
	}
	s.dropped.Add(int64(len(hs.pending)))
	hs.pending = nil
	hs.deficit = 0
	hs.queued = false
}

// stage admits one frame into its session's fair queue. Frames for
// unknown or cancelled sessions are dropped and their slot released
// immediately.
func (n *ni) stage(s *Scheduler, f link.Frame, ring *[]*hostState) {
	h, err := message.DecodeHeader(f.Payload)
	if err != nil {
		// An undecodable frame cannot name a session to fail; count it,
		// free the slot, move on.
		n.inbox.Release()
		s.dropped.Add(1)
		return
	}
	hs := n.lookup(h.MsgID)
	if hs == nil || hs.h.aborted.Load() {
		n.inbox.Release()
		s.dropped.Add(1)
		return
	}
	hs.pending = append(hs.pending, staged{payload: f.Payload, from: f.From, h: h})
	if !hs.queued {
		hs.queued = true
		*ring = append(*ring, hs)
	}
}

// serve handles one staged frame end to end — the shared FPFS step
// (record the arrival, forward to every child, reassemble), then ACK on
// completion and release the buffer slot. Returns false only on
// scheduler teardown.
func (n *ni) serve(s *Scheduler, hs *hostState, st staged) bool {
	defer n.inbox.Release()
	done, err := hs.Serve(st.h, st.payload, st.from, hs.h.abort, s.start)
	if err != nil {
		s.failSession(hs.h, err)
		return true
	}
	if done {
		select {
		case s.acks <- ack{h: hs.h, at: hs.DoneAt}:
		case <-s.abort:
			return false
		}
	}
	return true
}
