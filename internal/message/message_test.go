package message

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stepsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{MsgID: 0xDEADBEEF, Source: 42, Seq: 7, Total: 9, Multicast: true, Payload: 44, Checksum: 123456}
	enc := h.Encode(nil)
	if len(enc) != HeaderSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), HeaderSize)
	}
	back, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip changed header: %+v vs %+v", back, h)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 5)); err == nil {
		t.Error("short header accepted")
	}
	// Zero total.
	var zero Header
	if _, err := DecodeHeader(zero.Encode(nil)); err == nil {
		t.Error("zero-total header accepted")
	}
	// Seq >= total.
	bad := Header{Total: 2, Seq: 2}
	if _, err := DecodeHeader(bad.Encode(nil)); err == nil {
		t.Error("seq >= total accepted")
	}
}

func TestPacketizeReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 43, 44, 45, 500, 512, 8192} {
		data := make([]byte, size)
		rng.Read(data)
		pkts, err := Packetize(7, 3, data, 64)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		wantPkts := (size + 43) / 44 // 64 - 20 header = 44 payload
		if wantPkts == 0 {
			wantPkts = 1
		}
		if len(pkts) != wantPkts {
			t.Fatalf("size %d: %d packets, want %d", size, len(pkts), wantPkts)
		}
		for _, p := range pkts {
			if len(p) > 64 {
				t.Fatalf("packet exceeds 64 bytes: %d", len(p))
			}
		}
		r := NewReassembler()
		for i, p := range pkts {
			done, err := r.Add(p)
			if err != nil {
				t.Fatalf("size %d packet %d: %v", size, i, err)
			}
			if done != (i == len(pkts)-1) {
				t.Fatalf("size %d: completion at packet %d", size, i)
			}
		}
		if !bytes.Equal(r.Bytes(), data) {
			t.Fatalf("size %d: data corrupted in round trip", size)
		}
	}
}

// TestPacketizeCapsEachPacket: the packets share one buffer, so an append
// to one must reallocate rather than write over its neighbour.
func TestPacketizeCapsEachPacket(t *testing.T) {
	pkts, err := Packetize(7, 3, make([]byte, 100), 64)
	if err != nil || len(pkts) != 3 {
		t.Fatalf("Packetize: %d packets, %v", len(pkts), err)
	}
	next := append([]byte(nil), pkts[1]...)
	grown := append(pkts[0], 0xAA, 0xBB, 0xCC, 0xDD)
	if &grown[0] == &pkts[0][0] {
		t.Fatal("an append to packet 0 grew it in place, into packet 1's bytes")
	}
	if !bytes.Equal(pkts[1], next) {
		t.Fatal("appending to packet 0 overwrote packet 1")
	}
	if _, _, err := Parse(pkts[1]); err != nil {
		t.Fatalf("packet 1 after an append to packet 0: %v", err)
	}
}

func TestReassemblerOutOfOrder(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly and at length")
	pkts, _ := Packetize(1, 0, data, 40)
	r := NewReassembler()
	for i := len(pkts) - 1; i >= 0; i-- { // reverse order
		if _, err := r.Add(pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r.Bytes(), data) {
		t.Error("out-of-order reassembly corrupted data")
	}
}

func TestReassemblerRejectsDuplicatesAndMixes(t *testing.T) {
	a, _ := Packetize(1, 0, []byte("message A payload spanning two packets at least"), 44)
	b, _ := Packetize(2, 0, []byte("message B payload spanning two packets at least"), 44)
	r := NewReassembler()
	if _, err := r.Add(a[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(a[0]); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := r.Add(b[1]); err == nil {
		t.Error("cross-message packet accepted")
	}
}

func TestReassemblerRejectsCorruption(t *testing.T) {
	pkts, _ := Packetize(1, 0, []byte("corruption target payload"), 64)
	pkt := append([]byte(nil), pkts[0]...)
	pkt[len(pkt)-1] ^= 0xFF
	r := NewReassembler()
	if _, err := r.Add(pkt); err == nil {
		t.Error("corrupted payload accepted")
	}
	// Truncated payload vs header claim.
	short := append([]byte(nil), pkts[0][:len(pkts[0])-1]...)
	if _, err := NewReassembler().Add(short); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestPacketizeErrors(t *testing.T) {
	if _, err := Packetize(1, 0, []byte("x"), HeaderSize); err == nil {
		t.Error("packet size <= header accepted")
	}
	if _, err := Packetize(1, -1, []byte("x"), 64); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := Packetize(1, 1<<17, []byte("x"), 64); err == nil {
		t.Error("oversized source accepted")
	}
	big := make([]byte, (1<<16)*45)
	if _, err := Packetize(1, 0, big, 64); err == nil {
		t.Error("sequence-space overflow accepted")
	}
	// The header's length field is 16 bits: one byte more per packet used
	// to be truncated silently into packets Add rejects.
	if _, err := Packetize(1, 0, make([]byte, 100000), HeaderSize+0xFFFF+1); err == nil {
		t.Error("payload size beyond the 16-bit length field accepted")
	}
	pkts, err := Packetize(1, 0, make([]byte, 100000), HeaderSize+0xFFFF)
	if err != nil || len(pkts) != 2 {
		t.Fatalf("largest packet size: %d packets, %v", len(pkts), err)
	}
	r := NewReassembler()
	for _, p := range pkts {
		if _, err := r.Add(p); err != nil {
			t.Fatalf("largest packet size: %v", err)
		}
	}
}

// packet builds one valid wire packet with an arbitrary header, for shapes
// Packetize never emits.
func packet(h Header, body []byte) []byte {
	h.Payload = uint16(len(body))
	return seal(append(h.Encode(nil), body...))
}

// TestReassemblerAnyOrder delivers a four-packet message (three full
// packets and a short last one) in every order — last packet first and full
// reversal among them — and a one-byte-short variant whose last packet is
// full.
func TestReassemblerAnyOrder(t *testing.T) {
	for _, size := range []int{3*10 + 4, 4 * 10} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		pkts, err := Packetize(1, 0, data, HeaderSize+10)
		if err != nil || len(pkts) != 4 {
			t.Fatalf("Packetize: %d packets, %v", len(pkts), err)
		}
		var permute func(order []int, rest []int)
		permute = func(order, rest []int) {
			if len(rest) == 0 {
				r := NewReassembler()
				for i, j := range order {
					done, err := r.Add(pkts[j])
					if err != nil || done != (i == 3) {
						t.Fatalf("order %v, packet %d: done %v, err %v", order, j, done, err)
					}
				}
				if !bytes.Equal(r.Bytes(), data) {
					t.Fatalf("order %v: reassembled %x, want %x", order, r.Bytes(), data)
				}
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				permute(append(order, rest[i]), next)
			}
		}
		permute(nil, []int{0, 1, 2, 3})
	}
}

// TestReassemblerRejectsMisfits: every packet but the last carries the same
// payload size and the last no more, whichever arrives first.
func TestReassemblerRejectsMisfits(t *testing.T) {
	h := Header{MsgID: 1, Total: 4}
	at := func(seq uint16, n int) []byte {
		h.Seq = seq
		return packet(h, make([]byte, n))
	}
	for _, tc := range []struct {
		name string
		ok   [][]byte
		bad  []byte
	}{
		{"a second size among the full packets", [][]byte{at(0, 8)}, at(2, 7)},
		{"a last packet longer than the others", [][]byte{at(1, 8)}, at(3, 9)},
		{"a full packet shorter than the last, which came first", [][]byte{at(3, 9)}, at(0, 8)},
		{"an empty packet before the last", nil, at(1, 0)},
	} {
		r := NewReassembler()
		for _, p := range tc.ok {
			if _, err := r.Add(p); err != nil {
				t.Fatalf("%s: setup: %v", tc.name, err)
			}
		}
		if _, err := r.Add(tc.bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got, _ := r.Progress(); got != len(tc.ok) {
			t.Errorf("%s: the rejected packet was counted: %d held", tc.name, got)
		}
	}
}

// TestReassemblerBoundedMemory: what a reassembler holds follows the bytes
// it has accepted, not the extent a header claims. The hostile case is one
// well-formed packet of a 65,535 x 65,535-byte message (4 GiB); the honest
// ones are a message larger than reasmPrealloc arriving in order (never
// held aside, so each byte is copied once), backwards, and with its first
// packet last (a retransmission).
func TestReassemblerBoundedMemory(t *testing.T) {
	footprint := func(r *Reassembler) int {
		n := cap(r.buf) + cap(r.have)
		for _, body := range r.held {
			n += cap(body)
		}
		return n
	}
	r := NewReassembler()
	if _, err := r.Add(packet(Header{MsgID: 1, Seq: 65533, Total: 65535}, make([]byte, 65535))); err != nil {
		t.Fatal(err)
	}
	if got := footprint(r); got > reasmPrealloc+3*65535 {
		t.Fatalf("one packet of a claimed 4 GiB message holds %d bytes", got)
	}

	const chunk = 4096
	data := make([]byte, 3*reasmPrealloc+100)
	rand.New(rand.NewSource(3)).Read(data)
	pkts, err := Packetize(1, 0, data, HeaderSize+chunk)
	if err != nil {
		t.Fatal(err)
	}
	m := len(pkts)
	orders := map[string]func(i int) int{
		"in order":          func(i int) int { return i },
		"backwards":         func(i int) int { return m - 1 - i },
		"first packet last": func(i int) int { return (i + 1) % m },
	}
	for name, order := range orders {
		r := NewReassembler()
		for i := 0; i < m; i++ {
			if _, err := r.Add(pkts[order(i)]); err != nil {
				t.Fatalf("%s: packet %d: %v", name, order(i), err)
			}
			if got, limit := footprint(r), reasmPrealloc+m+5*r.size; got > limit {
				t.Fatalf("%s: after %d bytes accepted the reassembler holds %d, limit %d", name, r.size, got, limit)
			}
			if name != "backwards" && len(r.held) != 0 {
				t.Fatalf("%s: packet %d was held aside", name, order(i))
			}
		}
		if len(r.held) != 0 || !bytes.Equal(r.Bytes(), data) {
			t.Fatalf("%s: %d packets still held, bytes equal %v", name, len(r.held), bytes.Equal(r.Bytes(), data))
		}
	}
}

// TestPutTrustsItsCaller: validation happens once, in Parse; Put places
// what it is handed. A second checksum pass behind it would reject this.
func TestPutTrustsItsCaller(t *testing.T) {
	pkts, _ := Packetize(1, 0, []byte("validated once"), 64)
	h, body, err := Parse(pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	if done, err := r.Put(h, bytes.ToUpper(body)); !done || err != nil {
		t.Fatalf("Put = %v, %v", done, err)
	}
	if got := r.Bytes(); string(got) != "VALIDATED ONCE" || &got[0] != &r.buf[0] {
		t.Fatalf("Bytes() = %q (the buffer itself: %v)", got, &got[0] == &r.buf[0])
	}
}

func TestBytesPanicsWhenIncomplete(t *testing.T) {
	pkts, _ := Packetize(1, 0, make([]byte, 200), 64)
	r := NewReassembler()
	r.Add(pkts[0])
	if got, total := r.Progress(); got != 1 || total != len(pkts) {
		t.Errorf("Progress = %d/%d", got, total)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Bytes()
}

func TestQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			data := make([]byte, r.Intn(4096))
			r.Read(data)
			vals[0] = reflect.ValueOf(data)
			vals[1] = reflect.ValueOf(HeaderSize + 1 + r.Intn(200))
		},
	}
	if err := quick.Check(func(data []byte, pktSize int) bool {
		pkts, err := Packetize(9, 5, data, pktSize)
		if err != nil {
			return false
		}
		r := NewReassembler()
		for _, p := range pkts {
			if _, err := r.Add(p); err != nil {
				return false
			}
		}
		return bytes.Equal(r.Bytes(), data)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestEndToEndDataDelivery wires the data plane to the timing plane: a
// multicast's step schedule delivers packets in arrival order to every
// destination, and each destination reassembles the exact message.
func TestEndToEndDataDelivery(t *testing.T) {
	sys := core.NewIrregularSystem(topology.DefaultIrregular(), 1)
	data := make([]byte, 500)
	rand.New(rand.NewSource(9)).Read(data)
	pkts, err := Packetize(77, 0, data, 64)
	if err != nil {
		t.Fatal(err)
	}
	set := workload.DestSet(workload.NewRNG(5), 64, 7)
	spec := core.Spec{Source: set[0], Dests: set[1:], Packets: len(pkts), Policy: core.OptimalTree}
	plan := sys.Plan(spec)
	sched := plan.StepSchedule(stepsim.FPFS)
	for _, d := range spec.Dests {
		arr := sched.Arrival[d]
		// Deliver packets in arrival-step order (stable on packet index).
		order := make([]int, len(pkts))
		for i := range order {
			order[i] = i
		}
		// arrival steps are non-decreasing in packet index under FPFS, so
		// index order == arrival order; verify and reassemble.
		for j := 1; j < len(arr); j++ {
			if arr[j] < arr[j-1] {
				t.Fatalf("dest %d: packets out of order in schedule", d)
			}
		}
		r := NewReassembler()
		for _, i := range order {
			if _, err := r.Add(pkts[i]); err != nil {
				t.Fatalf("dest %d: %v", d, err)
			}
		}
		if !bytes.Equal(r.Bytes(), data) {
			t.Fatalf("dest %d: corrupted message", d)
		}
	}
}

func TestWithEpoch(t *testing.T) {
	pkts, err := Packetize(9, 2, []byte("epoch fencing payload"), 32)
	if err != nil {
		t.Fatal(err)
	}
	pkt := pkts[0]
	stamped, err := WithEpoch(pkt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &stamped[0] == &pkt[0] {
		t.Fatal("re-stamp did not copy")
	}
	h, _, err := Parse(stamped)
	if err != nil {
		t.Fatalf("re-stamped packet does not verify: %v", err)
	}
	if h.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", h.Epoch)
	}
	// Everything but epoch and checksum is unchanged; the body is identical.
	h0, _ := DecodeHeader(pkt)
	h.Epoch, h.Checksum = h0.Epoch, h0.Checksum
	if h != h0 {
		t.Fatalf("re-stamp changed header fields: %+v vs %+v", h, h0)
	}
	if !bytes.Equal(stamped[HeaderSize:], pkt[HeaderSize:]) {
		t.Fatal("re-stamp changed payload")
	}
	// Same epoch: the original slice comes back, no copy.
	same, err := WithEpoch(stamped, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &same[0] != &stamped[0] {
		t.Fatal("matching epoch should return the input unchanged")
	}
	// Corrupting the epoch bytes is caught by the checksum like any other
	// header damage.
	bad := append([]byte(nil), stamped...)
	bad[18] ^= 0xFF
	if _, err := DecodeHeader(bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Parse(bad); err == nil {
		t.Fatal("corrupted epoch passed checksum")
	}
	// A reassembler accepts re-stamped packets: only the transmission epoch
	// differs, not the message identity.
	r := NewReassembler()
	for i, p := range pkts {
		sp, err := WithEpoch(p, uint16(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(sp); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r.Bytes(), []byte("epoch fencing payload")) {
		t.Fatal("reassembly of re-stamped packets lost bytes")
	}
}
