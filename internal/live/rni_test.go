package live

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/live/link"
	"repro/internal/message"
)

// TestReliableNIValidatesOnce: the NI's one look at a frame's integrity is
// message.Parse, before the epoch fence. A frame damaged on the wire is
// dropped unacknowledged; a frame that changes after that look — here
// inside the ACK hook, the first code to run once a frame has passed — is
// reassembled as it then reads, because no second checksum pass stands
// behind the first to notice.
func TestReliableNIValidatesOnce(t *testing.T) {
	pkts := mustPacketize(t, 3, 0, payloadBytes(200))
	var cur []byte
	acks, dones := 0, 0
	n := NewReliableNI(ReliableNIConfig{
		Host: 2, Inbox: link.NewInbox(2, 1, 0), MsgID: 3, Packets: len(pkts),
		Epoch:  func() int { return 0 },
		Ack:    func(host, from, seq, epoch int) { acks++; cur[len(cur)-1] ^= 0xFF },
		OnDone: func(int, time.Duration) { dones++ },
	})
	n.start = time.Now()

	cur = append([]byte(nil), pkts[0]...)
	cur[message.HeaderSize] ^= 0x04
	n.serve(link.Frame{From: 0, Payload: cur})
	if acks != 0 || n.Recvs != 0 {
		t.Fatalf("a damaged frame was acknowledged %d times and accepted %d times", acks, n.Recvs)
	}

	var want []byte
	for _, p := range pkts {
		cur = append([]byte(nil), p...)
		n.serve(link.Frame{From: 0, Payload: cur})
		want = append(want, cur[message.HeaderSize:]...)
	}
	if acks != len(pkts) || n.Recvs != len(pkts) || dones != 1 {
		t.Fatalf("%d packets: %d acks, %d accepted, %d completions", len(pkts), acks, n.Recvs, dones)
	}
	if !bytes.Equal(n.Data, want) {
		t.Fatal("the message is not the frames as they read when they were reassembled")
	}
}
