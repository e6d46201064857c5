package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/live"
	"repro/internal/live/link"
	"repro/internal/mcastd"
	"repro/internal/message"
	"repro/internal/reliable"
	"repro/internal/stepsim"
	"repro/internal/tree"
)

// Layer probes: each layer's public function timed alone, from outside, at
// the shape of the workload being traced. The ledger multiplies a probe's
// cost by the exact number of times one op performs it.

// probeBudget bounds one probe's measuring time.
const probeBudget = 60 * time.Millisecond

// timeBatches calls f in batches of batch calls until probeBudget is spent
// (at least five batches) and returns the median cost of one call.
func timeBatches(batch int, f func()) time.Duration {
	var per []float64
	for begin := time.Now(); len(per) < 5 || time.Since(begin) < probeBudget; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return time.Duration(median(per))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeModel prices the planning layers core.Plan is made of and reads the
// paper's model for the shape: Theorem 3's k and step count against the
// binomial tree's.
func probeModel(m *mcast, out map[string]float64) {
	n, packets := m.sh.Dests+1, m.sh.packets()
	source, dests := m.g.destSet(testbedHosts, m.sh.Dests)
	k, steps := ktree.OptimalK(n, packets)
	binomial := ktree.Steps(n, packets, ktree.CeilLog2(n))
	out["model.k_opt"] = float64(k)
	out["model.steps_opt"] = float64(steps)
	out["model.steps_binomial"] = float64(binomial)
	out["model.speedup_vs_binomial_x"] = ratio(float64(binomial), float64(steps))

	out["ktree.optimal_k_ns"] = float64(timeBatches(64, func() { ktree.OptimalK(n, packets) }))
	out["ordering.chain_us"] = us(timeBatches(64, func() { m.sys.Ord.Chain(source, dests) }))
	chain := m.sys.Ord.Chain(source, dests)
	out["tree.kbinomial_us"] = us(timeBatches(64, func() { tree.KBinomial(chain, k) }))
	tr := tree.KBinomial(chain, k)
	out["stepsim.run_us"] = us(timeBatches(4, func() { stepsim.Run(tr, packets, stepsim.FPFS) }))
}

// probeReassemble prices what one destination does with a message: verify
// and reassemble its packets.
func probeReassemble(m *mcast, out map[string]float64) error {
	pkts, err := message.Packetize(1, 0, m.payload, m.sh.PacketBytes)
	if err != nil {
		return err
	}
	out["message.reassemble_us_per_dest"] = us(timeBatches(4, func() {
		r := message.NewReassembler()
		for _, p := range pkts {
			r.Add(p)
		}
		r.Bytes()
	}))
	return nil
}

// probeChanHop prices one in-process hop — Link.Send, Inbox.Recv, Release —
// on an unbounded inbox and on a gated one.
func probeChanHop(out map[string]float64) {
	pkt := make([]byte, 64)
	hop := func(slots int) float64 {
		in := link.NewInbox(1, 8, slots)
		l := link.New(0, in, 0)
		return float64(timeBatches(1024, func() {
			l.Send(pkt, nil)
			in.Recv(nil)
			if slots > 0 {
				in.Release()
			}
		}))
	}
	out["link.chan_hop_ns"] = hop(0)
	out["link.chan_hop_bounded_ns"] = hop(8)
}

// probeUDPHop prices one socket hop at the workload's packet size on a
// two-host loopback fabric: Dial once, then Send on one side and Recv,
// Release on the other, with rusage and MemStats read around the loop.
func probeUDPHop(sh shape, out map[string]float64) error {
	nw, err := link.NewLoopbackUDP([]int{0, 1}, link.UDPConfig{Session: 1})
	if err != nil {
		return err
	}
	defer nw.Close()
	slots := sh.Buffer
	inboxes := []*link.Inbox{link.NewInbox(0, 8, slots), link.NewInbox(1, 8, slots)}
	for h, in := range inboxes {
		if err := nw.Attach(h, in); err != nil {
			return err
		}
	}
	t, err := nw.Dial(0, 1)
	if err != nil {
		return err
	}
	pkt := make([]byte, sh.PacketBytes)
	abort := make(chan struct{})
	hop := func() error {
		if err := t.Send(pkt, abort); err != nil {
			return err
		}
		if _, ok := inboxes[1].Recv(abort); !ok {
			return fmt.Errorf("udp probe: inbox closed")
		}
		if slots > 0 {
			inboxes[1].Release()
		}
		return nil
	}
	for i := 0; i < 64; i++ { // warm the sockets and buffers
		if err := hop(); err != nil {
			return err
		}
	}
	const hops = 2000
	before, start := readProc(), time.Now()
	for i := 0; i < hops; i++ {
		if err := hop(); err != nil {
			return err
		}
	}
	wall, used := time.Since(start), readProc().sub(before)
	perFrag := link.DefaultUDPMTU - 34 // datagram header, see link.UDPConfig.MTU
	frags := float64((sh.PacketBytes+perFrag-1)/perFrag) * hops
	out["link.udp_hop_us"] = us(wall) / hops
	out["link.udp_hop_cpu_us"] = us(used.cpu()) / hops
	out["link.udp_us_per_fragment"] = us(wall) / frags
	out["link.udp_sys_cpu_us_per_fragment"] = us(used.sysCPU) / frags
	out["link.udp_allocs_per_fragment"] = float64(used.mallocs) / frags
	return nil
}

// probeEdgeRTT prices one reliable edge round trip: Enqueue a sequence on an
// EdgeSender over an in-process link, receive the frame, hand back the ACK.
func probeEdgeRTT(out map[string]float64) error {
	const seqs = 2048
	pkts, err := message.Packetize(1, 0, make([]byte, 44), 64)
	if err != nil {
		return err
	}
	all := make([][]byte, seqs)
	for i := range all {
		all[i] = pkts[0]
	}
	in := link.NewInbox(1, 8, 0)
	cfg := live.DefaultReliableConfig()
	abort := make(chan struct{})
	es := live.NewEdgeSender(link.New(0, in, 0), live.EdgeSenderConfig{
		Packets: all, RTO: cfg.RTO, RTOMax: cfg.RTOMax, RetryBudget: cfg.RetryBudget, Abort: abort,
	})
	done := make(chan struct{})
	go func() { es.Run(); close(done) }()
	start := time.Now()
	for seq := 0; seq < seqs; seq++ {
		es.Enqueue(seq)
		if _, ok := in.Recv(abort); !ok {
			return fmt.Errorf("edge probe: inbox closed")
		}
		es.Ack(live.EdgeAck{Seq: seq})
	}
	out["live.edge_rtt_us"] = us(time.Since(start)) / seqs
	close(abort)
	<-done
	return nil
}

// armsBudget bounds the measuring time of one medianArms call.
const armsBudget = 300 * time.Millisecond

// medianArms runs the arms round-robin — so that drift and bursts hit them
// alike — at least 15 times each and until armsBudget is spent, and returns
// each arm's median wall time in microseconds.
func medianArms(arms ...func() error) ([]float64, error) {
	samples := make([][]float64, len(arms))
	for begin := time.Now(); len(samples[0]) < 15 || time.Since(begin) < armsBudget; {
		for i, arm := range arms {
			t := time.Now()
			if err := arm(); err != nil {
				return nil, err
			}
			samples[i] = append(samples[i], us(time.Since(t)))
		}
	}
	medians := make([]float64, len(arms))
	for i, s := range samples {
		medians[i] = median(s)
	}
	return medians, nil
}

// session plans and packetizes one multicast of payload at the workload's
// shape, outside any timer.
func (m *mcast) session(payload []byte) (live.Session, error) {
	source, dests := m.next()
	plan := m.sys.Plan(core.Spec{Source: source, Dests: dests, Packets: m.sh.packets(), Policy: core.OptimalTree})
	pkts, err := message.Packetize(m.msgID, source, payload, m.sh.PacketBytes)
	return live.Session{Tree: plan.Tree, Packets: pkts, MsgID: m.msgID}, err
}

// liveRun is one plain live.Run of payload at the workload's shape, on the
// workload's fabric.
func (w *liveWL) liveRun(payload []byte) error {
	s, err := w.session(payload)
	if err != nil {
		return err
	}
	cfg := live.Config{BufferPackets: w.sh.Buffer, Timeout: opTimeout}
	if w.udp {
		nw, err := w.provision(nil, s.Tree.Nodes())
		if err != nil {
			return err
		}
		defer nw.Close()
		cfg.Network = nw
	}
	_, err = live.Run([]live.Session{s}, cfg)
	return err
}

// probeLiveMarginal runs the workload's own tree with the whole message and
// with a one-packet message, so that (run - run_m1)/(m-1) is the measured
// cost of one more packet — Theorem 2's pipeline interval on a wall clock.
func probeLiveMarginal(w *liveWL, out map[string]float64) error {
	med, err := medianArms(
		func() error { return w.liveRun(w.payload) },
		func() error { return w.liveRun(w.payload[:w.sh.PacketBytes-message.HeaderSize]) },
	)
	if err != nil {
		return err
	}
	out["live.run_m1_us"] = med[1]
	out["live.us_per_extra_packet"] = ratio(med[0]-med[1], float64(w.sh.packets()-1))
	return nil
}

// probeReliableClean prices the reliable overlay with nothing to recover
// from, on the traced workload's shape and in the same process: plain
// live.Run, RunReliable with zero faults, and RunReliable with only the 50 us
// jitter BENCH_sim.json's "lossless" benchmark leaves armed.
func probeReliableClean(w *reliableWL, out map[string]float64) error {
	reliableRun := func(f link.Faults) func() error {
		return func() error {
			s, err := w.session(w.payload)
			if err != nil {
				return err
			}
			cfg := live.DefaultReliableConfig()
			cfg.Live.Timeout = opTimeout
			cfg.Faults = f
			res, err := live.RunReliable(s, cfg)
			if err == nil && res.Status != reliable.Delivered {
				err = fmt.Errorf("verdict %v, want delivered", res.Status)
			}
			return err
		}
	}
	med, err := medianArms(
		func() error {
			s, err := w.session(w.payload)
			if err != nil {
				return err
			}
			_, err = live.Run([]live.Session{s}, live.Config{Timeout: opTimeout})
			return err
		},
		reliableRun(link.Faults{}),
		reliableRun(link.Faults{Seed: w.g.rng.Uint64(), MaxJitter: 50 * time.Microsecond}),
	)
	if err != nil {
		return err
	}
	out["live.plain_run_us"] = med[0]
	out["live.reliable_clean_us"] = med[1]
	out["live.reliable_clean_x"] = ratio(med[1], med[0]) // clean reliable time / plain time
	out["live.reliable_jitter50_us"] = med[2]
	return nil
}

// probeDaemonPlain runs the daemon's reliable and unreliable engines in
// turn on the workload's configuration, so mcastd.reliable_x is what the
// reliable overlay costs the daemon on a clean wire.
func probeDaemonPlain(w *daemonWL, out map[string]float64) error {
	daemonRun := func(reliably bool) func() error {
		return func() error {
			s, err := w.session(w.payload)
			if err != nil {
				return err
			}
			nw, err := w.provision(nil, s.Tree.Nodes())
			if err != nil {
				return err
			}
			defer nw.Close()
			cfg := mcastd.Config{Tree: s.Tree, Packets: s.Packets, MsgID: s.MsgID, Local: s.Tree.Nodes(), Net: nw, Timeout: opTimeout}
			if reliably {
				_, err = mcastd.RunReliable(cfg, mcastd.DefaultReliableConfig())
			} else {
				_, err = mcastd.Run(cfg)
			}
			return err
		}
	}
	med, err := medianArms(daemonRun(true), daemonRun(false))
	if err != nil {
		return err
	}
	out["mcastd.run_plain_us"] = med[1]
	out["mcastd.reliable_x"] = ratio(med[0], med[1]) // reliable time / plain time
	return nil
}

// probeSim prices what sim recomputes on every run and psim is handed
// (routes), and each kernel's allocations for one run.
func probeSim(e *simEngines, out map[string]float64) {
	start := time.Now()
	for _, edge := range e.edges {
		e.router.Route(edge[0], edge[1])
	}
	out["sim.route_us"] = us(time.Since(start))

	allocs := func(f func()) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs - a.Mallocs)
	}
	out["sim.allocs_per_run"] = allocs(func() { e.serial() })
	out["psim.allocs_per_run"] = allocs(func() { e.parallel(e.w1, nil) })
}

// scalePass runs each kernel once on the 317 x 317 (100,489-host) mesh: a
// single advisory sample of events per second of host time at full scale.
func scalePass(source int, out map[string]float64) error {
	e := newSimEngines(317, source%(317*317))
	tr := newTracer()
	_, ws1, _, err := e.run(tr)
	if err != nil {
		return err
	}
	dur, _ := spanMedians(tr.spans())
	events := float64(ws1.Events)
	out["sim.events_per_s_100k"] = ratio(events, dur["sim.concurrent"]/1e6)
	out["psim.w1_events_per_s_100k"] = ratio(events, dur["psim.w1"]/1e6)
	out["psim.wn_events_per_s_100k"] = ratio(events, dur["psim.wn"]/1e6)
	return nil
}
