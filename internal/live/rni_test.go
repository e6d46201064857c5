package live

import (
	"bytes"
	"testing"

	"repro/internal/live/link"
	"repro/internal/message"
	"repro/internal/tree"
)

// TestReliableNIValidatesOnce: the NI's one look at a frame's integrity is
// Header.Verify on the header the NI loop decoded, before the epoch fence. A frame damaged on the wire is
// dropped unacknowledged; a frame that changes after that look — here
// inside the share's Remote sink, which its ACK reaches first once the
// frame has passed — is reassembled as it then reads, because no second
// checksum pass stands behind the first to notice.
func TestReliableNIValidatesOnce(t *testing.T) {
	pkts := mustPacketize(t, 3, 0, payloadBytes(200))
	var cur []byte
	acks := 0
	tr := tree.New(0)
	tr.AddChild(0, 2)
	plane, err := NewShare([]int{2}, 0, DefaultQuantum, Config{Network: newWireNet()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Stop)
	share, err := plane.AddReliable(ReliableShareConfig{
		Tree:  tr,
		MsgID: 3,
		Edge:  EdgeSenderConfig{Packets: pkts},
		// Host 0 runs elsewhere, so every ACK of host 2's leaves here.
		Remote: func(Order) { acks++; cur[len(cur)-1] ^= 0xFF },
	})
	if err != nil {
		t.Fatal(err)
	}
	n := share.NI(2)

	cur = append([]byte(nil), pkts[0]...)
	cur[message.HeaderSize] ^= 0x04
	deliverFrame(n, 0, cur)
	if acks != 0 || n.Recvs != 0 {
		t.Fatalf("a damaged frame was acknowledged %d times and accepted %d times", acks, n.Recvs)
	}

	var want []byte
	for _, p := range pkts {
		cur = append([]byte(nil), p...)
		deliverFrame(n, 0, cur)
		want = append(want, cur[message.HeaderSize:]...)
	}
	if r := reports(share); acks != len(pkts) || n.Recvs != len(pkts) || len(r) != 1 || r[0].Kind != ReportDone {
		t.Fatalf("%d packets: %d acks, %d accepted, reports %+v; want one completion", len(pkts), acks, n.Recvs, r)
	}
	if !bytes.Equal(n.Data, want) {
		t.Fatal("the message is not the frames as they read when they were reassembled")
	}
}

// deliverFrame hands n a frame from host from as the NI loop does, with
// its header decoded.
func deliverFrame(n *ReliableNI, from int, pkt []byte) {
	h, _ := message.DecodeHeader(pkt)
	n.serve(link.Frame{From: from, Payload: pkt}, h)
}
