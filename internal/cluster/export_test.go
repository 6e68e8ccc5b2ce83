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
