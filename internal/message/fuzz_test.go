package message

import (
	"bytes"
	"errors"
	"testing"
)

// typed reports whether a reject wraps one of the package's sentinels.
func typed(err error) bool { return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMisfit) }

// FuzzDecodeHeader ensures the header decoder never panics, that every
// reject is typed, and that every successfully decoded header re-encodes
// to its canonical form's prefix.
func FuzzDecodeHeader(f *testing.F) {
	good := Header{MsgID: 9, Source: 3, Seq: 1, Total: 4, Multicast: true, Payload: 10, Checksum: 99}
	f.Add(good.Encode(nil))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize))
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize+8))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		// Round-trip: canonical encoding must decode to the same header.
		back, err := DecodeHeader(h.Encode(nil))
		if err != nil {
			t.Fatalf("canonical re-decode failed: %v", err)
		}
		if back != h {
			t.Fatalf("header not canonical: %+v vs %+v", h, back)
		}
	})
}

// FuzzReassemblerAdd ensures arbitrary packets never panic the
// reassembler, that every reject is typed, that valid single-packet
// messages always complete, and that what comes out is as long as what was
// accepted.
func FuzzReassemblerAdd(f *testing.F) {
	pkts, _ := Packetize(1, 0, []byte("seed payload for the fuzzer"), 48)
	for _, p := range pkts {
		f.Add(p)
	}
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		r := NewReassembler()
		done, err := r.Add(pkt)
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		got, total := r.Progress()
		if got != 1 {
			t.Fatalf("accepted packet but progress %d/%d", got, total)
		}
		if done != (total == 1) {
			t.Fatalf("completion flag inconsistent: done=%v total=%d", done, total)
		}
		if done && len(r.Bytes()) != len(pkt)-HeaderSize {
			t.Fatalf("accepted %d payload bytes, reassembled %d", len(pkt)-HeaderSize, len(r.Bytes()))
		}
	})
}

// FuzzCorruptedPacket is the fault-plane contract of the data plane: a
// packet with one byte mutated anywhere — header, reserved padding and
// payload alike — is rejected as ErrCorrupt (CRC-32C over the wire bytes
// detects every error burst of up to 32 bits), and the original still
// completes the message. A corrupted packet must never be mis-reassembled
// into the wrong slot, message, or content.
func FuzzCorruptedPacket(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 48, 3, byte(0x40))
	f.Add([]byte{}, 21, 0, byte(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 300), 64, 25, byte(0x80))
	f.Add([]byte("seq flip target"), 40, 6, byte(0x01)) // header Seq byte
	f.Fuzz(func(t *testing.T, data []byte, pktSize, pos int, mask byte) {
		if pktSize <= HeaderSize || pktSize > 1024 || len(data) > 1<<14 || mask == 0 || pos < 0 {
			return
		}
		pkts, err := Packetize(7, 2, data, pktSize)
		if err != nil {
			t.Fatalf("packetize rejected valid input: %v", err)
		}
		idx := pos % len(pkts)
		orig := pkts[idx]
		mut := append([]byte(nil), orig...)
		off := (pos / len(pkts)) % len(mut)
		mut[off] ^= mask

		r := NewReassembler()
		for i, p := range pkts {
			if i != idx {
				if _, err := r.Add(p); err != nil {
					t.Fatalf("clean packet %d rejected: %v", i, err)
				}
			}
		}
		if _, err := r.Add(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("packet %d with byte %d xor %#02x: %v, want ErrCorrupt", idx, off, mask, err)
		}
		if _, err := r.Add(orig); err != nil {
			t.Fatalf("original packet rejected after corrupt attempt: %v", err)
		}
		if !r.Complete() {
			t.Fatal("message did not complete")
		}
		if !bytes.Equal(r.Bytes(), data) {
			t.Fatal("corruption leaked into reassembled message")
		}
	})
}

// FuzzPacketizeRoundTrip checks the full fragment/reassemble cycle over
// arbitrary payloads and packet sizes.
func FuzzPacketizeRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), 64)
	f.Add([]byte{}, 21)
	f.Add(bytes.Repeat([]byte{7}, 1000), 32)
	f.Fuzz(func(t *testing.T, data []byte, pktSize int) {
		if pktSize <= HeaderSize || pktSize > 4096 || len(data) > 1<<16 {
			return
		}
		pkts, err := Packetize(5, 1, data, pktSize)
		if err != nil {
			t.Fatalf("packetize rejected valid input: %v", err)
		}
		r := NewReassembler()
		for _, p := range pkts {
			if _, err := r.Add(p); err != nil {
				t.Fatalf("reassembly of own packets failed: %v", err)
			}
		}
		if !bytes.Equal(r.Bytes(), data) {
			t.Fatal("round trip corrupted payload")
		}
	})
}
