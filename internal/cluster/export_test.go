package cluster

// ProberStats is a snapshot of the failure detector's state.
type ProberStats struct {
	// Probes counts probe requests sent; Failures counts the ones that
	// failed (error, timeout, or non-200).
	Probes   int64
	Failures int64
	// Failing maps node name to its current consecutive-failure count
	// (nodes at zero are omitted).
	Failing map[string]int
	// Evicted lists the nodes this prober declared dead, in order.
	Evicted []string
}

// Stats snapshots the prober's counters.
func (p *Prober) Stats() ProberStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	failing := make(map[string]int, len(p.fails))
	for name, n := range p.fails {
		if n > 0 {
			failing[name] = n
		}
	}
	return ProberStats{
		Probes:   p.probes,
		Failures: p.failed,
		Failing:  failing,
		Evicted:  append([]string(nil), p.evicted...),
	}
}

// senderCounts is one node's sender as the owner loop sees it: frames in the
// sequence on the wire, frames waiting in the window, events not yet cut, and
// frames a cancelled sender owes.
type senderCounts struct {
	Wire, Queued, Buffered, Owed int
}

// senderCounts snapshots every sender, answered by the owner loop.
func (r *Router) senderCounts() map[string]senderCounts {
	out := make(map[string]senderCounts)
	r.inspect(func(st *routerState) {
		for _, s := range st.senders {
			n := senderCounts{Wire: s.inFlight, Buffered: len(s.buf)}
			if waiting := len(s.queue) - s.inFlight; s.cancelled {
				n.Owed = waiting
			} else {
				n.Queued = waiting
			}
			out[s.name] = n
		}
	})
	return out
}
