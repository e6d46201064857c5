package sched

// job is one session's root-injection work: the packets still to pump
// into the root's child links. Owned by exactly one shard.
type job struct {
	h    *Handle
	root *hostState
	next int // next packet index to inject
}

// shard is one injector worker. Each shard round-robins packet
// injection across the sessions assigned to it, a quantum of packets
// per visit — the root-side half of the scheduler's fairness, and the
// structural replacement for live's goroutine-per-injector: 10k
// sessions cost Config.Shards goroutines, not 10k.
type shard struct {
	add chan *job
}

func (sh *shard) run(s *Scheduler) {
	defer s.wg.Done()
	var jobs []*job
	for {
		if len(jobs) == 0 {
			select {
			case j := <-sh.add:
				jobs = append(jobs, j)
			case <-s.abort:
				return
			}
		}
		for drained := false; !drained; {
			select {
			case j := <-sh.add:
				jobs = append(jobs, j)
			default:
				drained = true
			}
		}
		j := jobs[0]
		jobs = jobs[1:]
		if sh.inject(s, j) {
			jobs = append(jobs, j)
		}
	}
}

// inject pumps up to one quantum of packets for the job, packet-major
// (FPFS at the source: packet j to every child before packet j+1) and
// reports whether the job still has packets left. Cancelled sessions
// are dropped; a transport failure fails the session.
func (sh *shard) inject(s *Scheduler, j *job) bool {
	h := j.h
	if h.aborted.Load() {
		return false
	}
	pkts := h.sess.Packets
	for q := 0; q < s.cfg.Quantum && j.next < len(pkts); q++ {
		if err := j.root.Forward(pkts[j.next], h.abort); err != nil {
			s.failSession(h, err)
			return false
		}
		j.next++
	}
	return j.next < len(pkts)
}
