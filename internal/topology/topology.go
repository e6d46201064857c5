// Package topology models switch-based interconnection networks: hosts
// (processors with network interfaces) attached to switches that are wired
// to each other by bidirectional links.
//
// Two families are provided, matching the paper's evaluation context:
//
//   - Irregular: randomly cross-wired switch networks, like the 64-host /
//     16 eight-port-switch testbed of Section 5.2;
//   - Cube: k-ary n-cubes (one host per switch, wrap-around links), the
//     regular networks on which dimension-ordered chains are defined, and
//     Mesh, the same grid without the wrap-around links.
//
// Every bidirectional link carries two directed channels; contention is
// tracked per channel by the routing and simulation packages.
package topology

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// NodeKind distinguishes host and switch endpoints.
type NodeKind int

const (
	// HostNode is a processor with a network interface.
	HostNode NodeKind = iota
	// SwitchNode is a wormhole switch.
	SwitchNode
)

// String returns "host" or "switch".
func (k NodeKind) String() string {
	if k == HostNode {
		return "host"
	}
	return "switch"
}

// Node identifies an endpoint: a host or a switch index.
type Node struct {
	Kind  NodeKind
	Index int
}

// String formats the node as h<i> or s<i>.
func (n Node) String() string {
	if n.Kind == HostNode {
		return fmt.Sprintf("h%d", n.Index)
	}
	return fmt.Sprintf("s%d", n.Index)
}

// Host and Switch are convenience constructors.
func Host(i int) Node   { return Node{HostNode, i} }
func Switch(i int) Node { return Node{SwitchNode, i} }

// Link is one bidirectional cable between two endpoints. Its two directed
// channels have IDs 2*ID (A→B) and 2*ID+1 (B→A).
type Link struct {
	ID   int
	A, B Node
}

// Channel returns the directed channel ID for traversal from `from` across
// this link. It panics if from is not an endpoint of the link.
func (l Link) Channel(from Node) int {
	switch from {
	case l.A:
		return 2 * l.ID
	case l.B:
		return 2*l.ID + 1
	default:
		panic(fmt.Sprintf("topology: %v is not an endpoint of link %d (%v-%v)", from, l.ID, l.A, l.B))
	}
}

// Other returns the endpoint opposite to from.
func (l Link) Other(from Node) Node {
	switch from {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		panic(fmt.Sprintf("topology: %v is not an endpoint of link %d", from, l.ID))
	}
}

// Network is an immutable host/switch interconnect.
type Network struct {
	numHosts    int
	numSwitches int
	switchPorts int
	links       []Link
	hostLink    []int   // host index -> link ID of its NI cable
	hostSwitch  []int   // host index -> switch index it attaches to
	switchLinks [][]int // switch index -> IDs of incident links (all kinds)
	switchHosts [][]int // switch index -> attached host indices (ascending)

	// grid geometry when built by Cube or Mesh (arity^dims switches, host
	// id == switch id); zero for irregular networks. Partition uses it to
	// cut contiguous slabs instead of hashing, routing.DimOrder to pick
	// its per-dimension step.
	gridArity, gridDims int
	gridWrap            bool // built by Cube: every dimension is a ring
}

// NumHosts returns the processor count.
func (n *Network) NumHosts() int { return n.numHosts }

// NumSwitches returns the switch count.
func (n *Network) NumSwitches() int { return n.numSwitches }

// Grid reports the arity^dims geometry when the network was built by Cube
// or Mesh (one host per switch, host id == switch id), and ok=false for
// irregular networks. Partitioners use it to cut contiguous coordinate
// slabs with minimal edge cut.
func (n *Network) Grid() (arity, dims int, ok bool) {
	return n.gridArity, n.gridDims, n.gridArity > 0
}

// Torus reports whether the network was built by Cube — a grid whose
// dimensions wrap around — rather than by Mesh or an irregular generator.
func (n *Network) Torus() bool { return n.gridWrap }

// Links returns all links. The slice is owned by the network.
func (n *Network) Links() []Link { return n.links }

// NumChannels returns the number of directed channels (2 per link).
func (n *Network) NumChannels() int { return 2 * len(n.links) }

// Link returns the link with the given ID.
func (n *Network) Link(id int) Link {
	if id < 0 || id >= len(n.links) {
		panic(fmt.Sprintf("topology: link %d out of range [0,%d)", id, len(n.links)))
	}
	return n.links[id]
}

// HostSwitch returns the switch a host is attached to.
func (n *Network) HostSwitch(h int) int {
	n.checkHost(h)
	return n.hostSwitch[h]
}

// HostLink returns the link connecting host h to its switch.
func (n *Network) HostLink(h int) Link {
	n.checkHost(h)
	return n.links[n.hostLink[h]]
}

// SwitchHosts returns the hosts attached to switch s in ascending order.
func (n *Network) SwitchHosts(s int) []int {
	n.checkSwitch(s)
	return n.switchHosts[s]
}

// SwitchLinks returns the IDs of all links incident to switch s.
func (n *Network) SwitchLinks(s int) []int {
	n.checkSwitch(s)
	return n.switchLinks[s]
}

// SwitchNeighbors returns the distinct switches adjacent to s, ascending.
func (n *Network) SwitchNeighbors(s int) []int {
	n.checkSwitch(s)
	seen := map[int]bool{}
	var out []int
	for _, lid := range n.switchLinks[s] {
		other := n.links[lid].Other(Switch(s))
		if other.Kind == SwitchNode && !seen[other.Index] {
			seen[other.Index] = true
			out = append(out, other.Index)
		}
	}
	sort.Ints(out)
	return out
}

// SwitchLinkBetween returns the link joining switches a and b, and whether
// one exists. If parallel links exist, the lowest-ID one is returned.
func (n *Network) SwitchLinkBetween(a, b int) (Link, bool) {
	n.checkSwitch(a)
	n.checkSwitch(b)
	best, found := Link{}, false
	for _, lid := range n.switchLinks[a] {
		l := n.links[lid]
		if l.Other(Switch(a)) == Switch(b) && (!found || l.ID < best.ID) {
			best, found = l, true
		}
	}
	return best, found
}

// Connected reports whether the switch graph is connected (hosts are always
// attached to exactly one switch, so this implies full reachability).
func (n *Network) Connected() bool {
	if n.numSwitches == 0 {
		return false
	}
	seen := make([]bool, n.numSwitches)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range n.SwitchNeighbors(s) {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == n.numSwitches
}

func (n *Network) checkHost(h int) {
	if h < 0 || h >= n.numHosts {
		panic(fmt.Sprintf("topology: host %d out of range [0,%d)", h, n.numHosts))
	}
}

func (n *Network) checkSwitch(s int) {
	if s < 0 || s >= n.numSwitches {
		panic(fmt.Sprintf("topology: switch %d out of range [0,%d)", s, n.numSwitches))
	}
}

// builder accumulates links and produces an immutable Network.
type builder struct {
	net *Network
}

func newBuilder(hosts, switches, ports int) *builder {
	return &builder{net: &Network{
		numHosts:    hosts,
		numSwitches: switches,
		switchPorts: ports,
		hostLink:    make([]int, hosts),
		hostSwitch:  make([]int, hosts),
		switchLinks: make([][]int, switches),
		switchHosts: make([][]int, switches),
	}}
}

// prealloc sizes the adjacency structures up front from known bounds:
// total link count, per-switch link degree and per-switch host count.
// switchLinks and switchHosts are carved out of two dense backing arrays
// (full-slice expressions cap each window, so an overflow falls back to
// an ordinary append-grown slice instead of clobbering a neighbor).
// Generating a 100k-switch grid this way costs a fixed handful of
// allocations instead of ~2 per switch.
func (b *builder) prealloc(totalLinks, linksPerSwitch, hostsPerSwitch int) {
	n := b.net
	if totalLinks > 0 {
		n.links = make([]Link, 0, totalLinks)
	}
	if linksPerSwitch > 0 {
		backing := make([]int, n.numSwitches*linksPerSwitch)
		for s := 0; s < n.numSwitches; s++ {
			off := s * linksPerSwitch
			n.switchLinks[s] = backing[off : off : off+linksPerSwitch]
		}
	}
	if hostsPerSwitch > 0 {
		backing := make([]int, n.numSwitches*hostsPerSwitch)
		for s := 0; s < n.numSwitches; s++ {
			off := s * hostsPerSwitch
			n.switchHosts[s] = backing[off : off : off+hostsPerSwitch]
		}
	}
}

func (b *builder) addLink(a, c Node) int {
	id := len(b.net.links)
	b.net.links = append(b.net.links, Link{ID: id, A: a, B: c})
	for _, e := range []Node{a, c} {
		if e.Kind == SwitchNode {
			b.net.switchLinks[e.Index] = append(b.net.switchLinks[e.Index], id)
		}
	}
	return id
}

func (b *builder) attachHost(h, s int) {
	id := b.addLink(Host(h), Switch(s))
	b.net.hostLink[h] = id
	b.net.hostSwitch[h] = s
	b.net.switchHosts[s] = append(b.net.switchHosts[s], h)
}

// IrregularConfig parameterizes the random irregular network generator.
type IrregularConfig struct {
	Hosts    int // number of processors (paper: 64)
	Switches int // number of switches (paper: 16)
	Ports    int // ports per switch (paper: 8)
	// ExtraDegree caps inter-switch links per switch; 0 means "whatever the
	// port budget allows after hosts are attached".
	ExtraDegree int
}

// DefaultIrregular is the paper's Section 5.2 testbed: 64 hosts on 16
// eight-port switches (4 hosts per switch, 4 ports for switch-switch
// wiring).
func DefaultIrregular() IrregularConfig {
	return IrregularConfig{Hosts: 64, Switches: 16, Ports: 8}
}

// Irregular generates a random connected irregular network. Hosts are
// distributed round-robin over switches; remaining switch ports are wired
// randomly: first a random spanning tree guarantees connectivity, then
// surplus ports are paired off subject to the port budget (no self-links,
// no parallel links). Generation is fully determined by rng.
func Irregular(cfg IrregularConfig, rng *workload.RNG) *Network {
	if cfg.Hosts < 1 || cfg.Switches < 1 || cfg.Ports < 1 {
		panic(fmt.Sprintf("topology: invalid config %+v", cfg))
	}
	hostsPer := (cfg.Hosts + cfg.Switches - 1) / cfg.Switches
	if hostsPer >= cfg.Ports {
		panic(fmt.Sprintf("topology: %d hosts on %d switches exceeds %d-port budget",
			cfg.Hosts, cfg.Switches, cfg.Ports))
	}
	b := newBuilder(cfg.Hosts, cfg.Switches, cfg.Ports)
	// Dense prealloc: every switch holds at most Ports incident links, and
	// the link total is bounded by host cables plus half the switch-side
	// port budget. Keeps 100k-host generation at a fixed allocation count.
	b.prealloc(cfg.Hosts+cfg.Switches*cfg.Ports/2+1, cfg.Ports, hostsPer)
	for h := 0; h < cfg.Hosts; h++ {
		b.attachHost(h, h%cfg.Switches)
	}
	free := make([]int, cfg.Switches) // remaining port budget per switch
	maxDeg := cfg.Ports
	if cfg.ExtraDegree > 0 {
		maxDeg = cfg.ExtraDegree // interpreted as inter-switch degree cap
	}
	for s := 0; s < cfg.Switches; s++ {
		free[s] = cfg.Ports - len(b.net.switchHosts[s])
		if cfg.ExtraDegree > 0 && free[s] > maxDeg {
			free[s] = maxDeg
		}
	}
	if cfg.Switches > 1 {
		// Random spanning tree: connect each switch (in random order) to a
		// random already-connected switch with port budget left. Budgets
		// are >= 1 per switch by the hostsPer check, so this always works,
		// though a hub switch may exhaust its ports.
		//
		// cands is maintained incrementally as exactly the connected
		// switches with a free port, in connection order — the same list
		// the previous implementation rebuilt from scratch per switch, so
		// the rng.Intn draw sequence (and thus every generated topology)
		// is unchanged while generation drops from O(S²) to ~O(S).
		order := rng.Perm(cfg.Switches)
		cands := make([]int, 0, cfg.Switches)
		if free[order[0]] > 0 {
			cands = append(cands, order[0])
		}
		for _, s := range order[1:] {
			if len(cands) == 0 {
				panic("topology: spanning tree ran out of ports (config too tight)")
			}
			pi := rng.Intn(len(cands))
			p := cands[pi]
			b.addLink(Switch(s), Switch(p))
			free[s]--
			free[p]--
			if free[p] == 0 {
				cands = append(cands[:pi], cands[pi+1:]...)
			}
			if free[s] > 0 {
				cands = append(cands, s)
			}
		}
		// Wire surplus ports in random pairs, rejecting self and parallel
		// links. Bounded retries keep generation total. pool is maintained
		// incrementally as the ascending list of switches with free ports
		// (identical to the per-try rebuild it replaces, draw for draw).
		// Parallel-link rejection scans the candidate's incident links —
		// at most Ports of them — instead of keeping a map whose overflow
		// buckets dominate the allocation count at 25k switches.
		pool := make([]int, 0, cfg.Switches)
		for s := 0; s < cfg.Switches; s++ {
			if free[s] > 0 {
				pool = append(pool, s)
			}
		}
		for tries := 0; tries < 64*cfg.Switches; tries++ {
			if len(pool) < 2 {
				break
			}
			ai := rng.Intn(len(pool))
			ci := rng.Intn(len(pool))
			a, c := pool[ai], pool[ci]
			if a == c || b.net.switchesLinked(a, c) {
				continue
			}
			b.addLink(Switch(a), Switch(c))
			free[a]--
			free[c]--
			// Remove exhausted switches by descending position so the
			// first removal cannot shift the second's index.
			if ai < ci {
				ai, ci = ci, ai
				a, c = c, a
			}
			if free[a] == 0 {
				pool = append(pool[:ai], pool[ai+1:]...)
			}
			if free[c] == 0 {
				pool = append(pool[:ci], pool[ci+1:]...)
			}
		}
	}
	return b.net
}

// switchesLinked reports whether a direct switch-switch link joins a and b
// — an O(Ports) scan of a's incident links.
func (n *Network) switchesLinked(a, b int) bool {
	for _, lid := range n.switchLinks[a] {
		if o := n.links[lid].Other(Switch(a)); o.Kind == SwitchNode && o.Index == b {
			return true
		}
	}
	return false
}

// Cube builds a k-ary n-cube: arity^dims switches, each with one attached
// host, and wrap-around links in every dimension (for arity 2 a single link
// per dimension, to avoid parallel links).
func Cube(arity, dims int) *Network { return grid(arity, dims, true) }

// Mesh builds an arity^dims mesh: like Cube but without wrap-around links,
// so border switches have fewer neighbors. One host per switch.
func Mesh(arity, dims int) *Network { return grid(arity, dims, false) }

// maxGridHosts bounds the host count of a Cube or Mesh.
const maxGridHosts = 1 << 20

// CheckGrid reports why Cube and Mesh would refuse arity and dims: they
// need arity >= 2, dims >= 1 and at most 2^20 hosts.
func CheckGrid(arity, dims int) error {
	if arity < 2 || dims < 1 {
		return fmt.Errorf("topology: invalid %d-ary %d-dimensional grid: arity must be >= 2 and dims >= 1", arity, dims)
	}
	for i, n := 0, 1; i < dims; i++ {
		if n *= arity; n > maxGridHosts {
			return fmt.Errorf("topology: %d-ary %d-dimensional grid has more than %d hosts", arity, dims, maxGridHosts)
		}
	}
	return nil
}

// grid builds both: host links first (host h on switch h, link ID h), then
// per dimension, per switch in index order, the link to the +1 neighbor.
// The last switch of a row has none in a mesh; in a cube its link closes
// the ring. Link IDs follow that order and every kill:LINK@T token and
// recorded route depends on it.
func grid(arity, dims int, wrap bool) *Network {
	if err := CheckGrid(arity, dims); err != nil {
		panic(err)
	}
	n := 1
	for i := 0; i < dims; i++ {
		n *= arity
	}
	// An arity-2 ring is one link: the +1 neighbor already covers the pair.
	ring := wrap && arity > 2
	perDim := n / arity * (arity - 1)
	if ring {
		perDim = n
	}
	b := newBuilder(n, n, 0)
	b.prealloc(n+dims*perDim, 1+2*dims, 1)
	b.net.gridArity, b.net.gridDims, b.net.gridWrap = arity, dims, wrap
	for h := 0; h < n; h++ {
		b.attachHost(h, h)
	}
	stride := 1
	for d := 0; d < dims; d++ {
		for s := 0; s < n; s++ {
			next := s + stride
			if (s/stride)%arity == arity-1 {
				if !ring {
					continue
				}
				next = s - (arity-1)*stride
			}
			b.addLink(Switch(s), Switch(next))
		}
		stride *= arity
	}
	return b.net
}

// CubeCoord returns the per-dimension coordinates of switch s in an
// arity^dims cube or mesh (least significant dimension first).
func CubeCoord(s, arity, dims int) []int {
	coord := make([]int, dims)
	for d := 0; d < dims; d++ {
		coord[d] = s % arity
		s /= arity
	}
	return coord
}

// PartitionError reports that removing a link would disconnect the switch
// graph, leaving some hosts mutually unreachable. It is the typed failure
// the fault-injection plane distinguishes from programming errors.
type PartitionError struct {
	Link int // the link whose removal partitions the network
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("topology: removing link %d partitions the network", e.Link)
}

// WithoutLink returns a copy of the network with one switch-switch link
// removed — the fault-injection primitive. Removing a host's only link is
// rejected (the host would be unreachable by construction). Link IDs are
// reassigned densely in the copy; because links are copied in ascending ID
// order, a surviving link with original ID i gets new ID i when i < id and
// i-1 otherwise (see LinkIDAfterRemoval). Host attachments are preserved.
//
// WithoutLink panics on invalid IDs and host links; it does NOT check
// connectivity (use WithoutLinkChecked for a typed partition error).
func (n *Network) WithoutLink(id int) *Network {
	if id < 0 || id >= len(n.links) {
		panic(fmt.Sprintf("topology: link %d out of range [0,%d)", id, len(n.links)))
	}
	victim := n.links[id]
	if victim.A.Kind == HostNode || victim.B.Kind == HostNode {
		panic(fmt.Sprintf("topology: cannot fail host link %d (%v-%v)", id, victim.A, victim.B))
	}
	b := newBuilder(n.numHosts, n.numSwitches, n.switchPorts)
	for _, l := range n.links {
		if l.ID == id {
			continue
		}
		if l.A.Kind == HostNode {
			b.attachHost(l.A.Index, l.B.Index)
		} else if l.B.Kind == HostNode {
			b.attachHost(l.B.Index, l.A.Index)
		} else {
			b.addLink(l.A, l.B)
		}
	}
	return b.net
}

// WithoutLinkChecked is WithoutLink with errors instead of panics: it
// rejects out-of-range IDs and host links with ordinary errors, and returns
// a *PartitionError when the removal disconnects the switch graph.
func (n *Network) WithoutLinkChecked(id int) (*Network, error) {
	if id < 0 || id >= len(n.links) {
		return nil, fmt.Errorf("topology: link %d out of range [0,%d)", id, len(n.links))
	}
	victim := n.links[id]
	if victim.A.Kind == HostNode || victim.B.Kind == HostNode {
		return nil, fmt.Errorf("topology: cannot fail host link %d (%v-%v)", id, victim.A, victim.B)
	}
	net := n.WithoutLink(id)
	if !net.Connected() {
		return nil, &PartitionError{Link: id}
	}
	return net, nil
}

// LinkIDAfterRemoval maps a link ID of this network to its ID in the
// network WithoutLink(removed) returns, and false for the removed link
// itself. The event simulator uses it to translate routes computed on a
// degraded copy back onto the original channel space.
func LinkIDAfterRemoval(id, removed int) (int, bool) {
	switch {
	case id == removed:
		return -1, false
	case id > removed:
		return id - 1, true
	default:
		return id, true
	}
}
