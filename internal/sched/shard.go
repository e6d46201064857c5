package sched

// job is one session's root-injection work: the packets still to pump
// into the root's child links. Owned by exactly one shard.
type job struct {
	h    *Handle
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

// inject sends up to one quantum of packets for the job through the
// share's root copy step (live.Entry.Send: packet j to every child
// before packet j+1) and reports whether the job still has packets
// left. A cancelled session is dropped; a failed Send has already
// reported itself to the collector.
func (sh *shard) inject(s *Scheduler, j *job) bool {
	select {
	case <-j.h.abort:
		return false
	default:
	}
	m := len(j.h.sess.Packets)
	for q := 0; q < s.cfg.Quantum && j.next < m; q++ {
		if j.h.entry.Send(j.next) != nil {
			return false
		}
		j.next++
	}
	return j.next < m
}
