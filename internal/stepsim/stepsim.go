// Package stepsim computes exact step-granularity schedules of packetized
// multicast over a given tree, for the three network-interface disciplines
// the paper studies: smart FPFS, smart FCFS, and conventional (host
// forwarding).
//
// A step is the transmission of one packet between two network interfaces
// (paper Section 2.5). The model makes the paper's assumptions explicit:
//
//   - every NI is a serial server: it injects at most one packet copy per
//     step;
//   - a packet received during step t can be forwarded from step t+1 on;
//   - the source has all packets available at step 0 (the host-to-NI
//     transfer is the software overhead t_s, accounted separately);
//   - the network itself is contention-free at this granularity (package
//     sim models link contention in continuous time).
//
// This package reproduces Figs. 5 and 8 of the paper exactly and is the
// ground truth against which Theorems 1-3 are property-tested.
package stepsim

import (
	"fmt"

	"repro/internal/tree"
)

// Discipline selects the forwarding behaviour of the network interfaces.
type Discipline int

const (
	// FPFS (First-Packet-First-Served): each packet is forwarded to every
	// child as soon as it arrives; packets are served in arrival order.
	FPFS Discipline = iota
	// FCFS (First-Child-First-Served): the whole message is forwarded to
	// child 1, then to child 2, and so on. At intermediate nodes packet j
	// cannot be sent before it has arrived.
	FCFS
	// Conventional models host-level forwarding: an intermediate node must
	// receive the complete message before its NI forwards anything, and the
	// host software overheads are charged in latency conversions (package
	// analytic); at step granularity the whole-message wait is what differs.
	Conventional
)

// String returns the discipline name.
func (d Discipline) String() string {
	switch d {
	case FPFS:
		return "FPFS"
	case FCFS:
		return "FCFS"
	case Conventional:
		return "Conventional"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Validate returns an error unless d is one of the three disciplines.
func (d Discipline) Validate() error {
	if d < FPFS || d > Conventional {
		return fmt.Errorf("unknown discipline %v", d)
	}
	return nil
}

// Copy is one packet copy an NI injects toward one of its children.
type Copy struct{ Packet, Child int32 }

// Release is the one NI service rule: it appends to q the copies that an
// NI with c children may inject once packet pkt of an m-packet message is
// available, and complete says the NI then holds the whole message. The
// source calls it for packets 0..m-1 in order, a forwarder as each packet
// arrives. FPFS and Conventional release pkt to every child: packet-major.
// FCFS releases pkt to child 0 and, once complete, the whole message to
// each later child in turn: child-major. A Conventional forwarder is the
// exception the engines model themselves: its host stores the message and
// forwards it whole.
func (d Discipline) Release(q []Copy, m, c, pkt int, complete bool) []Copy {
	if err := d.Validate(); err != nil {
		panic("stepsim: " + err.Error())
	}
	now := c // children that take pkt as it becomes available
	if d == FCFS {
		now = min(c, 1)
	}
	for ci := 0; ci < now; ci++ {
		q = append(q, Copy{int32(pkt), int32(ci)})
	}
	for ci := now; complete && ci < c; ci++ {
		for j := 0; j < m; j++ {
			q = append(q, Copy{int32(j), int32(ci)})
		}
	}
	return q
}

// Schedule is the result of simulating an m-packet multicast over a tree.
type Schedule struct {
	Discipline Discipline
	Packets    int
	// Arrival[v][j] is the step during which packet j (0-based) finishes
	// arriving at node v. The root has Arrival[root][j] = 0 for all j.
	Arrival map[int][]int
	// Sends records every injection: the step, sender, receiver and packet.
	Sends []Send
	// TotalSteps is the step at which the last packet arrives at the last
	// destination — the multicast's step count.
	TotalSteps int
}

// Send is one packet injection performed by a network interface.
type Send struct {
	Step     int // step during which the transmission occupies the sender NI
	From, To int
	Packet   int // 0-based packet index
}

// PacketDone returns the step at which packet j has reached every node
// (the paper's T_j, with T as in Theorem 1).
func (s *Schedule) PacketDone(j int) int {
	if j < 0 || j >= s.Packets {
		panic(fmt.Sprintf("stepsim: packet %d out of range [0,%d)", j, s.Packets))
	}
	done := 0
	for _, arr := range s.Arrival {
		if arr[j] > done {
			done = arr[j]
		}
	}
	return done
}

// Lags returns the successive differences T_{j+1} - T_j of packet
// completion steps. Theorem 1 states these all equal the root's child count
// for k-binomial trees.
func (s *Schedule) Lags() []int {
	if s.Packets < 2 {
		return nil
	}
	lags := make([]int, s.Packets-1)
	prev := s.PacketDone(0)
	for j := 1; j < s.Packets; j++ {
		d := s.PacketDone(j)
		lags[j-1] = d - prev
		prev = d
	}
	return lags
}

// Run simulates an m-packet multicast over tr with the given discipline and
// returns the full schedule. m must be at least 1.
func Run(tr *tree.Tree, m int, d Discipline) *Schedule {
	if m < 1 {
		panic(fmt.Sprintf("stepsim: invalid packet count m=%d", m))
	}
	if err := d.Validate(); err != nil {
		panic("stepsim: " + err.Error())
	}
	s := &Schedule{
		Discipline: d,
		Packets:    m,
		Arrival:    make(map[int][]int, tr.Size()),
	}
	root := tr.Root()
	rootArr := make([]int, m) // all packets at the source at step 0
	s.Arrival[root] = rootArr

	// Process nodes top-down in preorder: a node's schedule depends only on
	// its own arrivals, which its parent has already fixed.
	var q []Copy // the NI's service order, rebuilt per node
	var visit func(v int)
	visit = func(v int) {
		arr := s.Arrival[v]
		children := tr.Children(v)
		if len(children) > 0 {
			q = q[:0]
			for j := 0; j < m; j++ {
				q = d.Release(q, m, len(children), j, j == m-1)
			}
			niFree := 1 // earliest step this NI can inject next
			for _, cp := range q {
				j := int(cp.Packet)
				ready := arr[j] + 1 // forwardable the step after arrival
				if v == root {
					ready = 1 // all packets present before step 1
				}
				step := niFree
				if ready > step {
					step = ready
				}
				if d == Conventional && v != root {
					// Host forwarding: nothing leaves before the whole
					// message has arrived.
					if wait := arr[m-1] + 1; wait > step {
						step = wait
					}
				}
				c := children[cp.Child]
				ca, ok := s.Arrival[c]
				if !ok {
					ca = make([]int, m)
					s.Arrival[c] = ca
				}
				ca[j] = step // packet arrives during the same step it is sent
				s.Sends = append(s.Sends, Send{Step: step, From: v, To: c, Packet: j})
				niFree = step + 1
			}
		}
		for _, c := range children {
			visit(c)
		}
	}
	visit(root)

	for _, arr := range s.Arrival {
		if last := arr[m-1]; last > s.TotalSteps {
			s.TotalSteps = last
		}
	}
	return s
}

// Steps is a convenience wrapper returning only the total step count.
func Steps(tr *tree.Tree, m int, d Discipline) int {
	return Run(tr, m, d).TotalSteps
}
