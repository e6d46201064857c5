package message

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenPacket pins the wire format byte for byte: the literal below was
// computed outside this package (a bit-at-a-time CRC-32C, reflected
// polynomial 0x82F63B78), so a change to the layout, the checksum algorithm
// or what the checksum covers cannot pass tier-1 unnoticed.
func TestGoldenPacket(t *testing.T) {
	const golden = "0102030400050001000301000006" + "80bf9e06" + "0007" + "676f6c64656e"
	want := Header{MsgID: 0x01020304, Source: 5, Seq: 1, Total: 3, Multicast: true, Payload: 6, Checksum: 0x80bf9e06, Epoch: 7}
	pkt, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	h, body, err := Parse(pkt)
	if err != nil || h != want || string(body) != "golden" {
		t.Fatalf("Parse(golden) = %+v, %q, %v; want %+v, \"golden\"", h, body, err, want)
	}
	want.Checksum = 0
	if got := seal(append(want.Encode(nil), "golden"...)); !bytes.Equal(got, pkt) {
		t.Fatalf("encoded %x, want %s", got, golden)
	}
	// Packetize and WithEpoch produce the same bytes by their own routes.
	pkts, err := Packetize(0x01020304, 5, []byte("123456"+"golden"+"abc"), HeaderSize+6)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := WithEpoch(pkts[1], 7); err != nil || !bytes.Equal(got, pkt) {
		t.Fatalf("Packetize + WithEpoch gave %x, %v; want %s", got, err, golden)
	}
}

// corpusBytes reads the one []byte argument of a checked-in fuzz seed.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("%s: not a one-[]byte fuzz seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestSeedCorpusValidity keeps the checked-in seeds on the side of the
// validator they were written for: `go test` replays them without looking at
// the outcome, so after a format change a seed meant to exercise reassembly
// would otherwise rot into one more checksum rejection, silently.
func TestSeedCorpusValidity(t *testing.T) {
	valid := map[string]bool{
		"FuzzReassemblerAdd/single-packet-message":  true,
		"FuzzReassemblerAdd/first-of-two-fragments": true,
		"FuzzReassemblerAdd/minimal-empty-message":  true,
		"FuzzDecodeHeader/canonical":                true,
		"FuzzDecodeHeader/reserved-bytes-set":       true,
	}
	seen := 0
	for _, fn := range []string{"FuzzReassemblerAdd", "FuzzDecodeHeader"} {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", fn, "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			name := fn + "/" + filepath.Base(p)
			b := corpusBytes(t, p)
			var err error
			if fn == "FuzzDecodeHeader" {
				_, err = DecodeHeader(b)
			} else {
				_, err = NewReassembler().Add(b)
			}
			if valid[name] {
				seen++
			}
			if (err == nil) != valid[name] {
				t.Errorf("seed %s: err %v, want valid = %v", name, err, valid[name])
			}
		}
	}
	if seen != len(valid) {
		t.Errorf("found %d of the %d seeds that must stay valid", seen, len(valid))
	}
}

// TestAllocationPins holds Packetize and the receive path to the
// allocations they need and no more. crc32.Update dispatches through a
// function value, so any stack temporary handed to it (an encoded header,
// four zero bytes) escapes — one allocation per packet that nothing else in
// tier-1 would notice.
func TestAllocationPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes inlining and with it escape analysis")
	}
	data := make([]byte, 64*4096)
	pkts, err := Packetize(1, 0, data, HeaderSize+4096)
	if err != nil || len(pkts) != 64 {
		t.Fatalf("Packetize: %d packets, %v", len(pkts), err)
	}
	// The packet list and the one buffer every packet is cut from.
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Packetize(1, 0, data, HeaderSize+4096); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Packetize of 64 x 4 KiB allocates %v times, want <= 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := Parse(pkts[3]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Parse of a valid packet allocates %v times, want 0", n)
	}
	// The reassembler, its per-packet flags, its one buffer.
	if n := testing.AllocsPerRun(20, func() {
		r := NewReassembler()
		for _, p := range pkts {
			if _, err := r.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if len(r.Bytes()) != 64*4096 {
			t.Fatal("short message")
		}
	}); n > 4 {
		t.Errorf("reassembling 64 x 4 KiB allocates %v times, want <= 4", n)
	}
}
