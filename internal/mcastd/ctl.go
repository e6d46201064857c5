package mcastd

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/live"
	"repro/internal/reliable"
	"repro/internal/workload"
)

// Control-plane datagram payloads. The fabric's ctl kind is best-effort
// (lossy, unordered, bounded queue), so every exchange that matters is
// either acknowledged and retried with backoff (DONE/DONE-ACK,
// STOP/STOP-ACK, EXHAUSTED/KILL) or idempotent and periodically
// refreshed (GRAFT, EPOCH, BEAT). The fabric's one ctl queue delivers
// the payload with the local host it was addressed to — the datagram's
// From header is lost — so every message that needs a sender carries it
// explicitly.
//
// Wire shape: payload[0] is the kind; the kind's fields (ctlFrame's a, b,
// c in that order) follow as big-endian uint16s at 1+2i. ctlStop appends
// one trailing status byte after its field.
const (
	ctlDone      = 1  // [k, host]            dest -> root: message delivered
	ctlStop      = 2  // [k, epoch][status]   root -> dest: run over
	ctlDoneAck   = 3  // [k, host]            root -> dest: your DONE is recorded
	ctlStopAck   = 4  // [k, host]            dest -> root: your STOP landed
	ctlBeat      = 5  // [k, host]            dest -> root: process liveness
	ctlAck       = 6  // [k, child, seq, epoch]        child -> parent: data ACK
	ctlGraft     = 7  // [k, parent, child, epoch]     root -> parent's process: add edge
	ctlKill      = 8  // [k, parent, child, epoch]     root -> parent's process: drop edge
	ctlEpoch     = 9  // [k, epoch]                    root -> all: epoch advance
	ctlExhausted = 10 // [k, parent, child, gen]       parent's process -> root: edge died
)

// ctlLen is the payload length of every kind byte: 0 marks an unknown
// kind, and a known kind has (ctlLen-1)/2 fields (STOP's status byte is
// the odd one out).
var ctlLen = [256]int{
	ctlDone: 3, ctlStop: 4, ctlDoneAck: 3, ctlStopAck: 3, ctlBeat: 3,
	ctlAck: 7, ctlGraft: 7, ctlKill: 7, ctlEpoch: 3, ctlExhausted: 7,
}

// ctlFieldMax is the largest value a ctl field (and the fabric's own
// datagram header) can carry.
const ctlFieldMax = 1<<16 - 1

// RangeError reports a host id, packet count, epoch or generation that
// does not fit the ctl plane's 16-bit fields. Truncating it would alias
// it onto a valid value, so it is rejected instead.
type RangeError struct {
	What  string
	Value int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("mcastd: %s %d does not fit the ctl plane's 16-bit fields", e.What, e.Value)
}

// ctlFrame is one control datagram, decoded: a, b and c are the kind's
// fields in wire order (unused ones zero), status rides ctlStop only.
type ctlFrame struct {
	kind    byte
	a, b, c int
	status  reliable.Status
}

// encode appends the frame to dst, rejecting unknown kinds and
// out-of-range fields.
func (f ctlFrame) encode(dst []byte) ([]byte, error) {
	n := ctlLen[f.kind]
	if n == 0 {
		return nil, fmt.Errorf("mcastd: unknown ctl kind %d", f.kind)
	}
	dst = append(dst, f.kind)
	fields := [3]int{f.a, f.b, f.c}
	for _, v := range fields[:(n-1)/2] {
		if v < 0 || v > ctlFieldMax {
			return nil, &RangeError{What: "ctl field", Value: v}
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(v))
	}
	if f.kind == ctlStop {
		dst = append(dst, byte(f.status))
	}
	return dst, nil
}

// decodeCtl parses one control payload; unknown kinds, payloads shorter
// than their kind's and a STOP with an undefined status report false,
// trailing bytes are ignored.
func decodeCtl(b []byte) (ctlFrame, bool) {
	if len(b) == 0 || ctlLen[b[0]] == 0 || len(b) < ctlLen[b[0]] {
		return ctlFrame{}, false
	}
	f := ctlFrame{kind: b[0]}
	var fields [3]int
	for i := range fields[:(ctlLen[f.kind]-1)/2] {
		fields[i] = int(binary.BigEndian.Uint16(b[1+2*i:]))
	}
	f.a, f.b, f.c = fields[0], fields[1], fields[2]
	if f.kind == ctlStop {
		if f.status = reliable.Status(b[3]); f.status > reliable.Failed {
			return ctlFrame{}, false
		}
	}
	return f, true
}

// sendCtl encodes and sends one control frame, best-effort like the ctl
// plane itself: a frame that cannot be encoded is dropped with a log
// line (the exchange's own retry or refresh then re-evaluates it). The
// frame is encoded on the stack; the datagram is the one allocation.
func (c *Config) sendCtl(from, to int, f ctlFrame) {
	var buf [8]byte // every payload fits
	b, err := f.encode(buf[:0])
	if err != nil {
		c.logf("ctl %d->%d dropped: %v", from, to, err)
		return
	}
	c.Net.SendCtl(from, to, b)
}

// listenCtl hands every decodable ctl datagram of the process, with the
// local host it was addressed to, to handle until the process tears down.
func listenCtl(cfg Config, abort <-chan struct{}, handle func(to int, f ctlFrame)) {
	for {
		select {
		case <-abort:
			return
		case c := <-cfg.Net.Ctl():
			if f, ok := decodeCtl(c.Payload); ok {
				handle(c.To, f)
			}
		}
	}
}

// Handshake cadence. DONE and STOP retries back off exponentially with
// jitter so a partitioned or slow root never sees synchronized floods;
// the STOP exchange is additionally bounded by Config.Drain so a dead
// peer cannot stall the root's exit.
const (
	doneRetryBase = 25 * time.Millisecond
	doneRetryMax  = 400 * time.Millisecond
	stopRetryBase = 20 * time.Millisecond
	stopRetryMax  = 250 * time.Millisecond
	defaultDrain  = time.Second
)

// reportDone retries destination h's DONE at the root with capped
// exponential backoff + jitter until the root's DONE-ACK lands (acked),
// the run stops (STOP implies the ACK), or the process tears down.
func reportDone(cfg Config, h int, acked, stopped, abort <-chan struct{}) {
	rng := workload.NewRNG(0xd00e ^ uint64(h+1)<<16)
	for attempt := 1; ; attempt++ {
		cfg.sendCtl(h, cfg.Tree.Root(), ctlFrame{kind: ctlDone, a: h})
		timer := time.NewTimer(live.Backoff(doneRetryBase, doneRetryMax, attempt, rng))
		select {
		case <-abort:
		case <-stopped:
		case <-acked:
		case <-timer.C:
			continue
		}
		timer.Stop()
		return
	}
}

// stopRemotes runs the acknowledged STOP exchange: retry STOP at every
// unacknowledged remote host that member admits (nil: all of them) with
// capped backoff until each STOP-ACK lands or the drain deadline passes.
// The STOP payload carries the final epoch and status byte so remote
// processes report the root's verdict. All-local runs have no one to
// notify.
func stopRemotes(cfg Config, member func(v int) bool, stopAckCh <-chan int, status reliable.Status, epoch int) {
	root := cfg.Tree.Root()
	pending := map[int]bool{}
	for _, v := range cfg.Tree.Nodes() {
		if v != root && !cfg.Net.Local(v) && (member == nil || member(v)) {
			pending[v] = true
		}
	}
	if len(pending) == 0 {
		return
	}
	cfg.logf("stopping %d remote hosts (drain %v)", len(pending), cfg.Drain)
	drain := time.NewTimer(cfg.Drain)
	defer drain.Stop()
	rng := workload.NewRNG(0x57a9 ^ uint64(root+1)<<16)
	attempt := 0
	resend := time.NewTimer(0)
	defer resend.Stop()
	for len(pending) > 0 {
		select {
		case <-resend.C:
			for v := range pending {
				cfg.sendCtl(root, v, ctlFrame{kind: ctlStop, a: epoch, status: status})
			}
			attempt++
			resend.Reset(live.Backoff(stopRetryBase, stopRetryMax, attempt, rng))
		case v := <-stopAckCh:
			delete(pending, v)
		case <-drain.C:
			left := make([]int, 0, len(pending))
			for v := range pending {
				left = append(left, v)
			}
			sort.Ints(left)
			cfg.logf("drain deadline: %d STOP-ACKs outstanding from %v", len(left), left)
			return
		}
	}
}
