package sched

import (
	"repro/internal/core"
	"repro/internal/tree"
)

// PlanBcast plans one broadcast for submission to this scheduler: the
// contention-free chain comes from sys.Plan exactly as for a lone
// multicast, but the fanout bound is chosen against the scheduler's
// live edge census via tree.OptimalCongested — every in-flight tree
// already resident on an edge a candidate would reuse charges one step,
// the simultaneous-multicast objective.
// On an idle fabric the census is empty and the plan is byte-identical
// to the paper's Theorem-3 one-tree optimum (sys.Plan's own tree).
//
// The census is a snapshot: sessions admitted between planning and
// Submit can shift the load. That is inherent to online scheduling and
// fine — the penalty steers placement, it does not promise isolation.
func (s *Scheduler) PlanBcast(sys *core.System, source int, dests []int, packets int) (*tree.Tree, int, error) {
	spec := core.Spec{Source: source, Dests: dests, Packets: packets, Policy: core.OptimalTree}
	if err := sys.Validate(spec); err != nil {
		return nil, 0, err
	}
	p := sys.Plan(spec)
	s.mu.Lock()
	if len(s.edgeLoad) == 0 {
		s.mu.Unlock()
		return p.Tree, p.K, nil
	}
	t, k := tree.OptimalCongested(p.Chain, packets, func(parent, child int) int {
		return s.edgeLoad[tree.Edge{Parent: parent, Child: child}]
	})
	s.mu.Unlock()
	return t, k, nil
}
