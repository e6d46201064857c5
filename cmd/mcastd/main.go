// Command mcastd hosts one process's share of a multicast tree's
// network interfaces over real UDP sockets (internal/mcastd): the
// deployment shape of the paper's NI-supported multicast, with packets
// fragmented into checksummed datagrams and flow-controlled by credits.
//
// Every participating process must be started with the SAME plan flags
// (-topo, -arity, -dims, -wseed, -dests, -bytes, -packet, -k, -pseed,
// -session): each daemon derives the identical tree, payload and packet
// set deterministically from them, so nothing but datagrams and the
// DONE/STOP control handshake ever crosses the wire.
//
// Single-process smoke (every host in this process, loopback sockets):
//
//	mcastd -all -dests 15 -bytes 8192
//
// Two processes splitting a 4-host tree (host 0 is the root):
//
//	mcastd -hosts 0,1 -bind 0=127.0.0.1:9000,1=127.0.0.1:9001 \
//	       -peers 2=127.0.0.1:9002,3=127.0.0.1:9003 -dests 3
//	mcastd -hosts 2,3 -bind 2=127.0.0.1:9002,3=127.0.0.1:9003 \
//	       -peers 0=127.0.0.1:9000,1=127.0.0.1:9001 -dests 3
//
// With -reliable the daemons run the loss- and crash-tolerant protocol:
// per-edge retransmission with epoch fencing, process heartbeats, and
// Fig.-11 adoption of subtrees orphaned by a killed peer daemon. The
// root then settles a typed verdict (delivered, delivered-partial with
// -quorum, or failed) instead of wedging on the first lost datagram.
// -droprate arms a seeded self-test chaos plane on this process's data
// transports:
//
//	mcastd -all -reliable -droprate 0.03 -dests 15 -bytes 8192
//
// The root's process exits once every destination has reported DONE;
// destination processes exit when the root floods STOP (an acknowledged
// exchange retried until -drain expires). Exit status is 1 on a
// watchdog timeout or delivery failure, 2 on a usage error — a bad flag,
// or a configuration the engine refuses before the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code.
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("mcastd", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		topo    = fs.String("topo", "cube", "topology: cube or mesh")
		arity   = fs.Int("arity", 2, "topology arity")
		dims    = fs.Int("dims", 4, "topology dimensions")
		dests   = fs.Int("dests", 0, "number of destinations (0 = every other host)")
		wseed   = fs.Uint64("wseed", 7, "destination-set seed (source is the set's first draw)")
		bytesN  = fs.Int("bytes", 4096, "message payload size in bytes")
		packet  = fs.Int("packet", 256, "wire packet size in bytes")
		k       = fs.Int("k", 0, "fanout bound (0 = the optimal k of Theorem 3)")
		pseed   = fs.Uint64("pseed", 11, "payload content seed")
		session = fs.Uint64("session", 1, "datagram session nonce (shared by all daemons of a run)")
		mtu     = fs.Int("mtu", 0, "datagram MTU (0 = default)")
		window  = fs.Int("window", 0, "per-edge credit window in fragments (0 = default)")
		buffer  = fs.Int("buffer", 0, "NI buffer slots per host (0 = unbounded)")
		timeout = fs.Duration("timeout", 30*time.Second, "whole-run watchdog")
		relF    = fs.Bool("reliable", false, "run the loss- and crash-tolerant protocol (retransmission, heartbeats, adoption)")
		dropF   = fs.Float64("droprate", 0, "reliable mode: seeded self-test drop rate on this process's data plane [0,1)")
		rtoF    = fs.Duration("rto", 0, "reliable mode: base retransmission timeout (0 = default)")
		retryF  = fs.Int("retries", 0, "reliable mode: per-packet retransmission budget (0 = default)")
		quorumF = fs.Int("quorum", 0, "reliable mode: destinations required for a partial verdict (0 = all)")
		drainF  = fs.Duration("drain", 0, "graceful-shutdown bound on the root's STOP handshake (0 = default)")
		all     = fs.Bool("all", false, "host every NI in this process over loopback sockets")
		hostsF  = fs.String("hosts", "", "comma-separated hosts this process runs (multi-process mode)")
		bindF   = fs.String("bind", "", "local bind addresses: HOST=ADDR,... (multi-process mode)")
		peersF  = fs.String("peers", "", "remote peer addresses: HOST=ADDR,...")
		verbose = fs.Bool("v", false, "log protocol milestones")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"bytes", *bytesN < 0}, {"k", *k < 0}, {"timeout", *timeout < 0}, {"droprate", *dropF < 0},
		{"rto", *rtoF < 0}, {"retries", *retryF < 0}, {"drain", *drainF < 0},
	} {
		if f.neg {
			fmt.Fprintf(errw, "mcastd: -%s must not be negative\n", f.name)
			return 2
		}
	}
	if err := topology.CheckGrid(*arity, *dims); err != nil {
		fmt.Fprintf(errw, "mcastd: %v\n", err)
		return 2
	}

	var sys *core.System
	switch *topo {
	case "cube":
		sys = core.NewCubeSystem(*arity, *dims)
	case "mesh":
		sys = core.NewMeshSystem(*arity, *dims)
	default:
		fmt.Fprintf(errw, "mcastd: unknown topology %q (want cube or mesh)\n", *topo)
		return 2
	}
	numHosts := sys.Net.NumHosts()
	nd := *dests
	if nd == 0 {
		nd = numHosts - 1
	}
	if nd < 1 || nd >= numHosts {
		fmt.Fprintf(errw, "mcastd: -dests must be in 1..%d\n", numHosts-1)
		return 2
	}
	set := workload.DestSet(workload.NewRNG(*wseed), numHosts, nd)
	spec := core.Spec{Source: set[0], Dests: set[1:], Packets: 1, Policy: core.OptimalTree}
	if *k > 0 {
		spec.Policy = core.FixedKTree
		spec.K = *k
	}

	payload := make([]byte, *bytesN)
	prng := workload.NewRNG(*pseed)
	for i := range payload {
		payload[i] = byte(prng.Intn(256))
	}
	pkts, err := message.Packetize(1, spec.Source, payload, *packet)
	if err != nil {
		fmt.Fprintf(errw, "mcastd: packetize: %v\n", err)
		return 2
	}
	spec.Packets = len(pkts)
	plan := sys.Plan(spec)

	nw, err := link.NewUDPNetwork(link.UDPConfig{Session: *session, MTU: *mtu, Window: *window})
	if err != nil {
		fmt.Fprintf(errw, "mcastd: %v\n", err)
		return 2
	}
	defer nw.Close()
	local, binds, peers := plan.Tree.Nodes(), map[int]string{}, map[int]string{}
	if *all {
		if *hostsF != "" || *bindF != "" || *peersF != "" {
			fmt.Fprintln(errw, "mcastd: -all conflicts with -hosts/-bind/-peers")
			return 2
		}
	} else {
		if local, err = parseHosts(*hostsF); err != nil {
			fmt.Fprintf(errw, "mcastd: -hosts: %v\n", err)
			return 2
		}
		if binds, err = parseAddrs(*bindF); err != nil {
			fmt.Fprintf(errw, "mcastd: -bind: %v\n", err)
			return 2
		}
		if peers, err = parseAddrs(*peersF); err != nil {
			fmt.Fprintf(errw, "mcastd: -peers: %v\n", err)
			return 2
		}
	}
	for _, v := range local {
		addr, ok := binds[v]
		if !ok {
			addr = "127.0.0.1:0"
		}
		bound, err := nw.Listen(v, addr)
		if err != nil {
			fmt.Fprintf(errw, "mcastd: bind host %d: %v\n", v, err)
			return 1
		}
		if !*all {
			fmt.Fprintf(out, "host %d listening on %s\n", v, bound)
		}
	}
	for v, addr := range peers {
		if err := nw.AddPeer(v, addr); err != nil {
			fmt.Fprintf(errw, "mcastd: peer host %d: %v\n", v, err)
			return 1
		}
	}
	covered := map[int]bool{}
	for _, v := range local {
		covered[v] = true
	}
	for v := range peers {
		covered[v] = true
	}
	var missing []int
	for _, v := range plan.Tree.Nodes() {
		if !covered[v] {
			missing = append(missing, v)
		}
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		fmt.Fprintf(errw, "mcastd: tree hosts %v are neither local nor in -peers\n", missing)
		return 2
	}

	fmt.Fprintf(out, "plan: %d hosts, source h%d, %d destinations, k=%d, %d packets of %d bytes (%d-byte message)\n",
		numHosts, spec.Source, len(spec.Dests), plan.K, len(pkts), *packet, len(payload))
	fmt.Fprintf(out, "this process hosts %v\n", local)

	mcfg := mcastd.Config{
		Tree:          plan.Tree,
		Packets:       pkts,
		MsgID:         1,
		Local:         local,
		Net:           nw,
		BufferPackets: *buffer,
		Timeout:       *timeout,
		Drain:         *drainF,
	}
	if *verbose {
		mcfg.Log = errw
	}
	var res *live.ReliableResult
	if *relF {
		rcfg := mcastd.DefaultReliableConfig()
		if *rtoF > 0 {
			rcfg.RTO = *rtoF
			if rcfg.RTOMax < rcfg.RTO {
				rcfg.RTOMax = 10 * rcfg.RTO
			}
		}
		if *retryF > 0 {
			rcfg.RetryBudget = *retryF
		}
		rcfg.Quorum = *quorumF
		if *dropF > 0 {
			rcfg.Faults = link.Faults{Seed: *session ^ 0xD20B, DropRate: *dropF}
		}
		res, err = mcastd.RunReliable(mcfg, rcfg)
	} else {
		if *dropF > 0 {
			fmt.Fprintln(errw, "mcastd: -droprate requires -reliable (the plain engine wedges on loss)")
			return 2
		}
		res, err = mcastd.Run(mcfg)
	}
	if err != nil {
		fmt.Fprintln(errw, err) // the engine's errors name it
		if res == nil {
			return 2 // refused before the run: a negative bound or quorum, ...
		}
		if n := confirmed(res, plan.Tree.Root(), len(spec.Dests)); n > 0 {
			fmt.Fprintf(out, "partial progress: %d/%d destinations confirmed\n", n, len(spec.Dests))
		}
		return 1
	}
	fmt.Fprintf(out, "done in %v (fabric %+v)\n", res.Wall.Round(time.Microsecond), nw.Stats())
	if *relF {
		fmt.Fprintf(out, "verdict %v: epoch %d, %d retransmits, %d duplicates, %d adoptions\n",
			res.Status, res.Epoch, res.Retransmits, res.Duplicates, res.Adoptions)
		if len(res.Crashed) > 0 {
			fmt.Fprintf(out, "crashed hosts: %v; undelivered: %v\n", res.Crashed, res.Orphaned)
		}
	}
	if n := confirmed(res, plan.Tree.Root(), len(spec.Dests)); n > 0 {
		fmt.Fprintf(out, "root confirmed %d/%d destinations\n", n, len(spec.Dests))
	}
	ids := make([]int, 0, len(res.Hosts))
	for v := range res.Hosts {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	for _, v := range ids {
		rep := res.Hosts[v]
		if v == plan.Tree.Root() {
			fmt.Fprintf(out, "  h%-3d root: %d packet copies sent\n", v, rep.Sends)
			continue
		}
		fmt.Fprintf(out, "  h%-3d delivered %d bytes at %v (%d recv, %d fwd)\n",
			v, len(rep.Data), rep.DoneAt.Round(time.Microsecond), rep.Recvs, rep.Sends)
	}
	return 0
}

// confirmed is how many of the dests destinations the root's process saw
// complete: those it does not list as Orphaned. A process without the
// root saw none.
func confirmed(res *live.ReliableResult, root, dests int) int {
	if _, ok := res.Hosts[root]; !ok {
		return 0
	}
	return dests - len(res.Orphaned)
}

// parseHosts parses "0,1,2".
func parseHosts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no hosts given (use -hosts or -all)")
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad host %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no hosts given")
	}
	return out, nil
}

// parseAddrs parses "0=127.0.0.1:9000,1=127.0.0.1:9001".
func parseAddrs(s string) (map[int]string, error) {
	out := map[int]string{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		host, addr, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want HOST=ADDR)", f)
		}
		v, err := strconv.Atoi(strings.TrimSpace(host))
		if err != nil {
			return nil, fmt.Errorf("bad host in %q", f)
		}
		if _, dup := out[v]; dup {
			return nil, fmt.Errorf("host %d listed twice", v)
		}
		out[v] = strings.TrimSpace(addr)
	}
	return out, nil
}
