package link

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGoldenDatagrams pins the datagram format byte for byte, one datagram
// of each kind. The literals were computed outside this package (a
// bit-at-a-time CRC-32C, reflected polynomial 0x82F63B78), so a change to
// the layout, the version, the checksum algorithm or what it covers cannot
// pass tier-1 unnoticed.
func TestGoldenDatagrams(t *testing.T) {
	for _, tc := range []struct {
		name    string
		golden  string
		h       dgHeader
		payload string
	}{
		{"data", "4d43020100030007000000000000beef0000000200000029000000030013" + "0e90be1d" + "7061636b6574207a65726f207061796c6f6164",
			dgHeader{Kind: dgData, From: 3, To: 7, Session: 0xBEEF, Epoch: 2, Seq: 41, Frags: 3}, "packet zero payload"},
		{"credit", "4d43020200070003000000000000beef0000000200000028000000010000" + "c0773117",
			dgHeader{Kind: dgCredit, From: 7, To: 3, Session: 0xBEEF, Epoch: 2, Seq: 40, Frags: 1}, ""},
		{"probe", "4d43020300030007000000000000beef0000000200000000000000010000" + "0382c572",
			dgHeader{Kind: dgProbe, From: 3, To: 7, Session: 0xBEEF, Epoch: 2, Frags: 1}, ""},
		{"ctl", "4d43020400000009000000000000beef0000000000000000000000010003" + "fd164652" + "010005",
			dgHeader{Kind: dgCtl, To: 9, Session: 0xBEEF, Frags: 1}, "\x01\x00\x05"},
	} {
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDatagram(nil, tc.h, []byte(tc.payload)); !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %x, want %s", tc.name, got, tc.golden)
		}
		tc.h.Length = uint16(len(tc.payload))
		if h, payload, err := decodeDatagram(want); err != nil || h != tc.h || string(payload) != tc.payload {
			t.Errorf("%s: decoded %+v, %q, %v; want %+v, %q", tc.name, h, payload, err, tc.h, tc.payload)
		}
	}
	// The data datagram as version 1 framed it (FNV-1a in the checksum
	// field): a mixed-build fabric reads as a version mismatch, not as
	// corruption.
	v1, _ := hex.DecodeString("4d43010100030007000000000000beef0000000200000029000000030013" + "daa4682f" + "7061636b6574207a65726f207061796c6f6164")
	if _, _, err := decodeDatagram(v1); !errors.Is(err, ErrWrongVersion) || errors.Is(err, ErrBadDatagram) {
		t.Errorf("version-1 datagram: %v, want ErrWrongVersion", err)
	}
}

// TestSeedCorpusValidity keeps the checked-in seeds on the side of the
// decoder they were written for: `go test` replays them without looking at
// the outcome, so after a format change every valid-* seed would otherwise
// rot into one more rejection, silently.
func TestSeedCorpusValidity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeDatagram", "*"))
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-[]byte fuzz seed", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		_, _, err = decodeDatagram([]byte(s))
		switch name := filepath.Base(p); {
		case strings.HasPrefix(name, "valid-"):
			valid++
			if err != nil {
				t.Errorf("seed %s: %v", name, err)
			}
		case name == "wrong-version":
			if !errors.Is(err, ErrWrongVersion) {
				t.Errorf("seed %s: %v, want ErrWrongVersion", name, err)
			}
		case !errors.Is(err, ErrBadDatagram):
			t.Errorf("seed %s: %v, want ErrBadDatagram", name, err)
		}
	}
	if valid != 5 {
		t.Errorf("found %d valid-* seeds, want 5 (one per kind and the MTU-sized fragment)", valid)
	}
}

// TestDatagramCodecAllocations: framing is per fragment, on both sides of
// every socket. crc32.Update dispatches through a function value, so a
// stack temporary handed to it escapes — one allocation per datagram that
// nothing else in tier-1 would notice.
func TestDatagramCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes inlining and with it escape analysis")
	}
	h := dgHeader{Kind: dgData, From: 1, To: 2, Session: 3, Epoch: 4, Seq: 5, Frag: 1, Frags: 4}
	payload := make([]byte, 1166)
	buf := make([]byte, 0, dgHeaderSize+len(payload))
	if n := testing.AllocsPerRun(100, func() { buf = appendDatagram(buf[:0], h, payload) }); n != 0 {
		t.Errorf("appendDatagram into a buffer with capacity allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeDatagram(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeDatagram of a valid datagram allocates %v times, want 0", n)
	}
}
