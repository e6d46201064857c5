package live

import (
	"errors"
	"fmt"

	"repro/internal/live/link"
	"repro/internal/message"
)

// HostSession is one host's share of one plain (unacknowledged) session:
// the paper's FPFS step — forward each packet to every child as it
// arrives, buffer one packet — written once. Share, the data plane of
// live.Run, mcastd.Run and the session scheduler (internal/sched), embeds
// it by value in its per-host state; its NI loop decides when
// Serve (or, at the root, Forward) runs and releases a received packet's
// buffer slot after it.
//
// The embedded HostRecord is the host's result, filled in place; engines
// hand out &hs.HostRecord rather than copying it. Ownership is strict so
// every engine stays race-free by construction: every record is written
// by its host's NI goroutine, and read only after the engine has
// synchronized with it.
type HostSession struct {
	HostRecord
	links []link.Transport    // child transports, in tree send order
	reasm message.Reassembler // idle at the root, which owns the original
}

// NewHostSession returns host's state for one session; children are its
// tree edges in send order (none at a leaf).
func NewHostSession(host int, children []link.Transport) HostSession {
	return HostSession{HostRecord: HostRecord{Host: host}, links: children}
}

// Forward sends one packet to every child, in tree order: FPFS, at the
// root (packet j to every child before packet j+1 is touched) and at every
// host below it. An abort returns link.ErrAborted; a transport failure an
// error naming the dead edge.
func (hs *HostSession) Forward(pkt []byte, abort <-chan struct{}) error {
	for _, l := range hs.links {
		// Count before sending, roll back on failure: Sends is then final
		// before the host's last channel operation of the session, which
		// orders it ahead of a collector that reads the record once the
		// subtree below has acknowledged (the scheduler does). After a
		// failure Sends is the copies that went out.
		hs.Sends++
		if err := l.Send(pkt, abort); err != nil {
			hs.Sends--
			if errors.Is(err, link.ErrAborted) {
				return link.ErrAborted
			}
			return fmt.Errorf("live: host %d: forward edge %d->%d: %w", hs.Host, hs.Host, l.To(), err)
		}
	}
	return nil
}

// Serve handles one admitted packet end to end: record the arrival,
// forward first (the copy engine runs ahead of host delivery), then verify
// and reassemble locally. h is the header the caller decoded from pkt to
// find the session; it is not decoded again. done is true exactly once, on
// the packet that completes the message, after Data and DoneAt (read on
// clock) are stamped. The sender's buffer-slot reservation covers all
// of this — the packet's full service residency, like the simulator's — so
// the caller releases the slot only after Serve returns.
func (hs *HostSession) Serve(h message.Header, pkt []byte, from int, abort <-chan struct{}, clock link.Clock) (done bool, err error) {
	hs.Recvs++
	hs.Arrivals = append(hs.Arrivals, Arrival{Packet: int(h.Seq), From: from})
	if err = hs.Forward(pkt, abort); err != nil {
		return false, err
	}
	body, err := h.Verify(pkt)
	if err == nil {
		done, err = hs.reasm.Put(h, body)
	}
	if err != nil {
		return false, fmt.Errorf("live: host %d: packet %d from %d: %v", hs.Host, h.Seq, from, err)
	}
	if done {
		hs.Data = hs.reasm.Bytes()
		hs.DoneAt = clock.Now()
	}
	return done, nil
}
