package sim

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Result summarizes one simulated multicast.
type Result struct {
	// Latency is the multicast latency in microseconds: from the source
	// host initiating the send to the last destination host having
	// received the complete message (t_s and t_r included).
	Latency float64
	// NIDone is, per host, the time its NI finished receiving the last
	// packet (before the host-level t_r). The source is not included.
	NIDone map[int]float64
	// HostDone is, per destination host, NIDone + t_r.
	HostDone map[int]float64
	// MaxBuffered is, per forwarding node (source and intermediates), the
	// peak number of multicast packets resident in NI memory awaiting
	// copies. Leaf destinations are excluded (their buffering is the same
	// under every discipline).
	MaxBuffered map[int]int
	// ChannelWait is the total time packets spent waiting for busy
	// channels (contention), summed over all transmissions.
	ChannelWait float64
	// Sends is the total number of packet injections performed.
	Sends int
}

// Multicast simulates one m-packet multicast over tr, routed by router,
// under the given NI discipline. The tree's nodes are host IDs of router's
// network. It is the single-session form of Concurrent.
func Multicast(router routing.Router, tr *tree.Tree, m int, p Params, disc stepsim.Discipline) *Result {
	if m < 1 {
		panic(fmt.Sprintf("sim: invalid packet count m=%d", m))
	}
	conc := Concurrent(router, []Session{{Tree: tr, Packets: m}}, p, disc)
	s := conc.Sessions[0]
	return &Result{
		Latency:     s.Latency,
		NIDone:      s.NIDone,
		HostDone:    s.HostDone,
		MaxBuffered: conc.MaxBuffered,
		ChannelWait: conc.ChannelWait,
		Sends:       conc.Sends,
	}
}
