package mcastd

import (
	"errors"
	"testing"

	"repro/internal/reliable"
)

// FuzzCtl hammers the ctl decoder with arbitrary bytes: it must never
// panic, must reject unknown kinds and truncated payloads, and whatever
// it accepts must encode and decode back to itself (trailing bytes and
// STOP's older shapes are the only non-canonical inputs). The checked-in
// corpus under testdata/fuzz seeds truncations, unknown kinds, the
// legacy bare STOP and the trailing status byte.
func FuzzCtl(f *testing.F) {
	for _, fr := range []ctlFrame{
		{kind: ctlDone, a: 5},
		{kind: ctlStop, a: 7, status: reliable.DeliveredPartial},
		{kind: ctlAck, a: 3, b: 17, c: 2},
		{kind: ctlExhausted, a: ctlFieldMax, b: 0, c: ctlFieldMax},
	} {
		b, err := fr.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, ok := decodeCtl(b)
		if !ok {
			return
		}
		if int(fr.kind) >= len(ctlArity) || ctlArity[fr.kind] == 0 {
			t.Fatalf("accepted unknown kind %d", fr.kind)
		}
		if fr.kind != ctlStop && len(b) < 1+2*ctlArity[fr.kind] {
			t.Fatalf("accepted %d-byte payload of kind %d", len(b), fr.kind)
		}
		re, err := fr.encode()
		if err != nil {
			t.Fatalf("decoded frame %+v does not encode: %v", fr, err)
		}
		back, ok := decodeCtl(re)
		if !ok || back != fr {
			t.Fatalf("round trip %+v -> %x -> %+v (ok=%v)", fr, re, back, ok)
		}
	})
}

// Every in-range frame of every kind survives encode∘decode, and a field
// one past either end of the 16-bit space is rejected with a *RangeError
// instead of aliasing onto a valid value.
func TestCtlCodec(t *testing.T) {
	for kind, arity := range ctlArity {
		if arity == 0 {
			continue
		}
		for _, v := range []int{0, 1, 0x1234, ctlFieldMax} {
			fr := ctlFrame{kind: byte(kind), a: v}
			if arity == 3 {
				fr.b, fr.c = ctlFieldMax-v, v/2
			}
			if kind == ctlStop {
				fr.status = reliable.Failed
			}
			b, err := fr.encode()
			if err != nil {
				t.Fatalf("kind %d value %d: %v", kind, v, err)
			}
			if got, ok := decodeCtl(b); !ok || got != fr {
				t.Fatalf("kind %d: %+v round-tripped to %+v (ok=%v)", kind, fr, got, ok)
			}
		}
		for _, bad := range []int{-1, ctlFieldMax + 1, 1 << 20} {
			_, err := ctlFrame{kind: byte(kind), a: bad}.encode()
			var re *RangeError
			if !errors.As(err, &re) || re.Value != bad {
				t.Fatalf("kind %d field %d: err = %v, want *RangeError", kind, bad, err)
			}
		}
	}
	if _, ok := decodeCtl([]byte{ctlAck, 0, 1, 0, 2, 0}); ok {
		t.Fatal("truncated ACK accepted")
	}
	if fr, ok := decodeCtl([]byte{ctlStop}); !ok || fr.a != 0 || fr.status != reliable.Delivered {
		t.Fatalf("legacy bare STOP decoded to %+v (ok=%v)", fr, ok)
	}
}
