package main

import (
	"runtime"
)

// runProbes times the layers the traced workload crosses, alone, at its
// shape. Which probes apply follows from the workload's kind.
func runProbes(w loop, scale100k bool) (map[string]float64, error) {
	out := map[string]float64{}
	var err error
	switch w := w.(type) {
	case *liveWL:
		probeModel(&w.mcast, out)
		if err = probeReassemble(&w.mcast, out); err != nil {
			break
		}
		if w.udp {
			err = probeUDPHop(w.sh, out)
		} else {
			probeChanHop(out)
		}
		if err == nil {
			err = probeLiveMarginal(w, out)
		}
	case *reliableWL:
		probeModel(&w.mcast, out)
		probeChanHop(out)
		if err = probeReassemble(&w.mcast, out); err != nil {
			break
		}
		if err = probeEdgeRTT(out); err != nil {
			break
		}
		err = probeReliableClean(w, out)
	case *daemonWL:
		probeModel(&w.mcast, out)
		if err = probeReassemble(&w.mcast, out); err != nil {
			break
		}
		if err = probeUDPHop(w.sh, out); err != nil {
			break
		}
		err = probeDaemonPlain(w, out)
	case *schedWL:
		probeModel(&w.mcast, out)
		probeChanHop(out)
		err = probeReassemble(&w.mcast, out)
	case *simWL:
		probeSim(w.e, out)
		if scale100k {
			err = scalePass(w.e.sessions[0].Tree.Root(), out)
		}
	}
	return out, err
}

// ledger assembles the per-layer metrics of one workload from the three
// outside sources — spans and returned counters of the traced round, the
// layer probes — plus the process's own accounting over the untraced rounds,
// and attributes the op's CPU time to layers.
func (run *running) ledger(traced *round, spans []span, probes map[string]float64) (map[string]float64, []ledgerRow) {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}

	// Spans: the median time one op spent under each layer's public call.
	dur, _ := spanMedians(spans)
	for span, metric := range map[string]string{
		"core.plan": "core.plan_us", "message.packetize": "message.packetize_us", "link.provision": "link.udp_provision_us",
		"live.run": "live.run_us", "live.run_reliable": "live.reliable_run_us", "mcastd.run_reliable": "mcastd.run_reliable_us",
		"sched.plan_bcast": "sched.plan_bcast_us", "sched.submit": "sched.submit_us", "sched.wait": "sched.wait_us",
		"bench.verify": "bench.verify_us",
	} {
		if d, ok := dur[span]; ok {
			m[metric] = d
		}
	}

	// Counters the program returned: per verified op of the traced round,
	// whole-round totals, and values that repeat per op. Only what the
	// workload reported appears, so a zero here is a measured zero.
	for name := range traced.sums {
		m[name+"_per_op"] = traced.perOp(name)
	}
	for name, v := range traced.totals {
		m[name] = v
	}
	for name, v := range traced.last {
		m[name] = v
	}
	if sends, ok := m["live.sends_per_op"]; ok {
		m["live.us_per_send"] = ratio(dur["live.run"], sends)
	}
	if sends, ok := traced.sums["live.reliable_sends"]; ok {
		m["live.retransmit_frac"] = ratio(traced.sums["live.retransmits"], sends) // retransmissions / data frames sent
	}
	for _, events := range traced.events {
		traced.observeHops(events)
	}
	for obs, quantiles := range map[string]map[string]float64{
		"live.hop_us":         {"live.hop_p50_us": 0.5, "live.hop_p90_us": 0.9},
		"live.dest_skew_us":   {"live.dest_skew_us": 0.5},
		"mcastd.handshake_us": {"mcastd.handshake_us": 0.5},
		"sched.queue_wait_us": {"sched.queue_wait_p50_us": 0.5, "sched.queue_wait_p99_us": 0.99},
		"sched.inflight_us":   {"sched.inflight_p50_us": 0.5, "sched.inflight_p99_us": 0.99},
	} {
		if _, ok := traced.obs[obs]; ok {
			for metric, q := range quantiles {
				m[metric] = traced.quantile(obs, q)
			}
		}
	}

	// The two event kernels on identical input: events per second of host
	// time, and the ratios between them (every ratio names its base).
	if events, ok := traced.last["sim.events"]; ok {
		m["sim.events_per_s"] = ratio(events, dur["sim.concurrent"]/1e6)
		m["psim.w1_events_per_s"] = ratio(events, dur["psim.w1"]/1e6)
		m["psim.wn_events_per_s"] = ratio(events, dur["psim.wn"]/1e6)
		m["psim.w1_vs_sim_x"] = ratio(dur["sim.concurrent"], dur["psim.w1"]) // sim time / psim W=1 time
		m["psim.wn_speedup_x"] = ratio(dur["psim.w1"], dur["psim.wn"])       // psim W=1 time / psim W=n time
	}

	// The process, priced over the untraced rounds.
	var cpu, sys, busy, bytes, gc, ctx []float64
	for _, r := range run.rounds {
		ops := float64(len(r.lat))
		cpu = append(cpu, ratio(us(r.proc.cpu()), ops))
		sys = append(sys, ratio(us(r.proc.sysCPU), ops))
		busy = append(busy, r.proc.cpu().Seconds()/(r.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
		bytes = append(bytes, ratio(float64(r.proc.allocBytes), ops))
		gc = append(gc, ratio(us(r.proc.gcPause), ops))
		ctx = append(ctx, ratio(float64(r.proc.ctxSwitches), ops))
	}
	cpuPerOp := median(cpu)
	m["proc.cpu_us_per_op"] = cpuPerOp
	m["proc.sys_cpu_us_per_op"] = median(sys)
	m["proc.cpu_busy_frac"] = median(busy)
	m["proc.alloc_bytes_per_op"] = median(bytes)
	m["proc.gc_pause_us_per_op"] = median(gc)
	m["proc.ctx_switches_per_op"] = median(ctx)
	m["proc.peak_goroutines"] = float64(traced.peakGoroutines)
	if _, ok := run.w.(*schedWL); ok {
		m["sched.cpu_us_per_session"] = cpuPerOp
	}

	// End-to-end metrics BENCHMARK.json lists per layer (see gatedEverywhere).
	for _, d := range endToEnd {
		if v, ok := run.res.EndToEnd[d.Name]; ok && !d.gatedEverywhere() {
			m[d.Name] = v.Value
		}
	}

	// Attribution: count x unit cost per layer, against the op's CPU time.
	sh := run.def.Shape
	sends := float64(sh.sends())
	if v := traced.perOp("live.reliable_sends"); v > 0 {
		sends = v
	}
	hop, hopName := m["link.chan_hop_ns"]/1e3, "link.chan_hop"
	switch {
	case m["link.udp_hop_cpu_us"] > 0:
		hop, hopName = m["link.udp_hop_cpu_us"], "link.udp_hop"
	case m["live.edge_rtt_us"] > 0:
		hop, hopName = m["live.edge_rtt_us"], "live.edge_rtt"
	case sh.Buffer > 0:
		hop, hopName = m["link.chan_hop_bounded_ns"]/1e3, "link.chan_hop_bounded"
	}
	var rows []ledgerRow
	for _, name := range []string{"core.plan", "sched.plan_bcast", "message.packetize", "link.provision", "sched.submit",
		"sim.concurrent", "psim.w1", "psim.wn", "bench.verify"} {
		if dur[name] > 0 {
			rows = append(rows, ledgerRow{Layer: name, Count: 1, UnitUS: dur[name], Source: "span"})
		}
	}
	if _, sim := run.w.(*simWL); !sim {
		rows = append(rows,
			ledgerRow{Layer: hopName, Count: sends, UnitUS: hop, Source: "probe"},
			ledgerRow{Layer: "message.reassemble", Count: float64(sh.Dests), UnitUS: m["message.reassemble_us_per_dest"], Source: "probe"})
	}
	attributed := 0.0
	for _, r := range rows {
		attributed += r.us()
	}
	m["ledger.attributed_frac"] = ratio(attributed, cpuPerOp)
	if per, ok := m["message.reassemble_us_per_dest"]; ok {
		m["message.share_of_cpu"] = ratio(dur["message.packetize"]+float64(sh.Dests)*per, cpuPerOp)
	}

	// Helper counts that only feed ratios above are not metrics.
	declared := map[string]bool{}
	for _, d := range declaredPerLayer() {
		declared[d.Name] = true
	}
	for name := range m {
		if !declared[name] {
			delete(m, name)
		}
	}
	return m, rows
}
