package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ktree"
	"repro/internal/message"
	"repro/internal/stats"
	"repro/internal/stepsim"
)

func init() {
	register(Experiment{
		ID:    "pktsize",
		Title: "Extension: packet-size trade-off for a fixed message (cf. De Coster et al. [2])",
		Run:   runPktSize,
	})
}

// runPktSize fixes the message at 2 KB of payload and sweeps the network
// packet size. Smaller packets pipeline more finely (more, cheaper
// stages) but pay the wire-format header on every fragment and a fixed
// per-packet NI overhead; larger packets amortize overheads but
// coarsen the pipeline. The paper takes the packet size as fixed by the
// network (Section 2.1) and optimizes the tree instead; this experiment
// shows what that fixed choice costs across the design space, the
// question its reference [2] optimized in software.
func runPktSize(cfg Config) *Result {
	const msgBytes = 2048
	sys := systems(cfg)
	tb := stats.NewTable(
		fmt.Sprintf("Latency (us) delivering %d payload bytes to 31 dests vs network packet size", msgBytes),
		"pkt bytes", "payload/pkt", "m", "optimal k", "latency (us)")
	for _, pktBytes := range []int{32, 64, 128, 256, 512} {
		payload := pktBytes - message.HeaderSize
		m := (msgBytes + payload - 1) / payload
		c := cfg
		c.Params.PacketBytes = pktBytes // wire time scales with the packet
		lat := sweepLatency(c, sys, 31, m, core.OptimalTree, stepsim.FPFS)
		k, _ := ktree.OptimalK(32, m)
		tb.AddRow(fmt.Sprintf("%d", pktBytes), fmt.Sprintf("%d", payload),
			fmt.Sprintf("%d", m), fmt.Sprintf("%d", k), fmt.Sprintf("%.1f", lat))
	}
	return &Result{
		ID: "pktsize", Title: "packet size trade-off", Tables: []*stats.Table{tb},
		Notes: []string{
			"tiny packets multiply the fixed per-packet NI overhead t_ns: 32B packets are ~6x slower than 512B",
			"gains flatten past ~256B: t_ns amortizes away and wire time starts to grow with the packet",
		},
	}
}
