package check

import (
	"repro/internal/ktree"
	"repro/internal/stepsim"
)

// maxShrinkEvals bounds how many candidate instances one shrink run may
// re-check, so a pathological counterexample cannot stall the harness.
const maxShrinkEvals = 2000

// Shrink greedily minimizes an instance that violates the invariant with
// the given ID: it tries progressively gentler mutations — fewer hosts,
// fewer destinations, fewer packets, a simpler fault plan, canonical
// knobs — keeping any candidate on which the same invariant still fails,
// until no mutation preserves the failure. The result is deterministic
// for a given starting instance, so a replay token reproduces the shrunk
// counterexample exactly.
func Shrink(inst Instance, failingID string) Instance {
	fails := func(cand Instance) bool {
		for _, v := range Check(cand) {
			if v.ID == failingID {
				return true
			}
		}
		return false
	}
	cur := inst
	evals := 0
	for {
		improved := false
		for _, cand := range candidates(cur) {
			if evals >= maxShrinkEvals {
				return cur
			}
			if cand.Validate() != nil {
				continue
			}
			evals++
			if fails(cand) {
				cur = cand
				improved = true
				break // restart from the most aggressive mutation
			}
		}
		if !improved {
			return cur
		}
	}
}

// candidates proposes shrink mutations of inst, most aggressive first.
// Every candidate is strictly "smaller" in the lexicographic order
// (hosts, dests, packets, payload, fault plan, non-canonical knobs), so
// the greedy loop terminates.
func candidates(inst Instance) []Instance {
	var out []Instance
	add := func(c Instance) { out = append(out, c) }

	// 1. Shrink the topology. Participants out of the smaller host range
	// are dropped (the violation usually does not depend on them).
	for _, shrunk := range shrinkTopology(inst) {
		add(clampParticipants(shrunk))
	}

	// 2. Shrink the destination set: halve, then drop one at a time.
	// Crashes of dropped destinations are dropped with them.
	if len(inst.Dests) > 1 {
		c := inst
		c.Dests = append([]int(nil), inst.Dests[:len(inst.Dests)/2]...)
		add(clampK(clampCrashes(c)))
		for i := range inst.Dests {
			c := inst
			c.Dests = append(append([]int(nil), inst.Dests[:i]...), inst.Dests[i+1:]...)
			add(clampK(clampCrashes(c)))
		}
	}

	// 3. Shrink the message.
	if inst.Packets > 1 {
		c := inst
		c.Packets = 1
		add(c)
		c = inst
		c.Packets = inst.Packets / 2
		add(c)
		c = inst
		c.Packets--
		add(c)
	}
	if inst.PayloadBytes > 0 {
		c := inst
		c.PayloadBytes = 0
		add(c)
		c = inst
		c.PayloadBytes /= 2
		add(c)
	}

	// 4. Simplify the fault plan: drop all crashes, drop one, turn a
	// crash-recovery into a crash-stop, pull a crash earlier, then remove
	// packet loss.
	if len(inst.Crashes) > 0 {
		c := inst
		c.Crashes = nil
		add(c)
		for i := range inst.Crashes {
			c := inst
			c.Crashes = append(append([]CrashSpec(nil), inst.Crashes[:i]...), inst.Crashes[i+1:]...)
			add(c)
		}
		for i, cr := range inst.Crashes {
			if cr.RecoverStep > 0 {
				c := inst
				c.Crashes = append([]CrashSpec(nil), inst.Crashes...)
				c.Crashes[i].RecoverStep = 0
				add(c)
			}
			if cr.AtStep > 1 {
				c := inst
				c.Crashes = append([]CrashSpec(nil), inst.Crashes...)
				c.Crashes[i].AtStep = cr.AtStep / 2
				if r := c.Crashes[i].RecoverStep; r > 0 && r <= c.Crashes[i].AtStep {
					c.Crashes[i].RecoverStep = c.Crashes[i].AtStep + 1
				}
				add(c)
			}
		}
	}
	if inst.DropRate > 0 {
		c := inst
		c.DropRate = 0
		add(c)
	}

	// 5. Canonicalize remaining knobs: linear tree, FPFS, informed
	// ordering, seed 1.
	if inst.K != 1 {
		c := inst
		c.K = 1
		add(c)
		if inst.K > 1 {
			c = inst
			c.K--
			add(c)
		}
	}
	if inst.Disc != stepsim.FPFS {
		c := inst
		c.Disc = stepsim.FPFS
		add(c)
	}
	if inst.IdentityOrd {
		c := inst
		c.IdentityOrd = false
		add(c)
	}
	if inst.Topo == TopoIrregular && inst.TopoSeed != 1 {
		c := inst
		c.TopoSeed = 1
		add(c)
	}
	return out
}

// shrinkTopology proposes smaller geometries of the same family.
func shrinkTopology(inst Instance) []Instance {
	var out []Instance
	switch inst.Topo {
	case TopoIrregular:
		if inst.Switches > 2 {
			c := inst
			c.Switches = max(2, inst.Switches/2)
			out = append(out, c)
			c = inst
			c.Switches--
			out = append(out, c)
		}
		if inst.HostsPer > 1 {
			c := inst
			c.HostsPer = 1
			out = append(out, c)
			c = inst
			c.HostsPer--
			out = append(out, c)
		}
	case TopoCube, TopoMesh:
		if inst.Dims > 1 {
			c := inst
			c.Dims--
			out = append(out, c)
		}
		if inst.Arity > 2 {
			c := inst
			c.Arity = 2
			out = append(out, c)
			c = inst
			c.Arity--
			out = append(out, c)
		}
	}
	return out
}

// clampParticipants drops multicast participants that fell outside a
// shrunk host range and re-elects the source if it was dropped. The
// result may still be invalid (no destinations left); the shrinker's
// Validate gate discards those candidates.
func clampParticipants(inst Instance) Instance {
	hosts := inst.Hosts()
	src := inst.Source
	var dests []int
	for _, d := range inst.Dests {
		if d < hosts {
			dests = append(dests, d)
		}
	}
	if src >= hosts {
		if len(dests) == 0 {
			return inst // hopeless; Validate will reject it
		}
		src, dests = dests[0], dests[1:]
	}
	inst.Source, inst.Dests = src, dests
	return clampK(clampCrashes(inst))
}

// clampCrashes drops crash specs whose host is no longer a destination.
func clampCrashes(inst Instance) Instance {
	destSet := map[int]bool{}
	for _, d := range inst.Dests {
		destSet[d] = true
	}
	var crashes []CrashSpec
	for _, cr := range inst.Crashes {
		if destSet[cr.Host] {
			crashes = append(crashes, cr)
		}
	}
	inst.Crashes = crashes
	return inst
}

// clampK keeps an explicit fanout bound meaningful for a shrunk set: a k
// beyond ceil(log2 n) builds the same tree as the binomial bound, so pin
// it there to keep the shrink order well-founded.
func clampK(inst Instance) Instance {
	n := len(inst.Dests) + 1
	if n >= 2 && inst.K > ktree.CeilLog2(n) {
		inst.K = ktree.CeilLog2(n)
		if inst.K < 1 {
			inst.K = 1
		}
	}
	return inst
}
