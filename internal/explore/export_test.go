package explore

import (
	"slices"

	"privascope/internal/accesscontrol"
)

// probes counts the slots lookup visits for key: the walk lookup does, with
// a counter. Test-only, so the table carries no instrumentation.
func (t *stateTable) probes(slab []uint64, w int, key []uint64) int {
	hash := HashWords(key)
	n := 1
	for i, dist := hash&t.mask, uint64(0); ; i, dist = (i+1)&t.mask, dist+1 {
		e := t.entries[i]
		if e.id == 0 || (i-e.hash)&t.mask < dist {
			return n
		}
		if e.hash == hash {
			base := int(e.id-1) * w
			if wordsEqual(slab[base:base+w], key) {
				return n
			}
		}
		n++
	}
}

// ProbeStats is the mean and the longest probe sequence over one lookup of
// every key.
type ProbeStats struct {
	Mean float64
	Max  int
}

func (t *stateTable) probeStats(slab []uint64, w int, keys []uint64) ProbeStats {
	var s ProbeStats
	total := 0
	for base := 0; base < len(keys); base += w {
		n := t.probes(slab, w, keys[base:base+w])
		total += n
		if n > s.Max {
			s.Max = n
		}
	}
	s.Mean = float64(total) / float64(len(keys)/w)
	return s
}

// LookupProbes measures the result's visited table: hits looks up every
// recorded state, misses every recorded state with its top control bit
// flipped (a state no exploration reaches: progress counters stay far below
// 2^15). Load is the table's fill.
func (r *Result) LookupProbes() (hits, misses ProbeStats, load float64) {
	absent := slices.Clone(r.States)
	for last := r.Words - 1; last < len(absent); last += r.Words {
		absent[last] ^= 1 << 63
	}
	t := r.table
	return t.probeStats(r.States, r.Words, r.States), t.probeStats(r.States, r.Words, absent),
		float64(t.count) / float64(len(t.entries))
}

// ApplyPolicy patches the before-policy with the delta's access changes,
// yielding a policy that answers like the after-policy over the delta's
// scope. It is the round-trip half of Diff, used to validate deltas.
func (d *Delta) ApplyPolicy(before accesscontrol.Policy) *patchedPolicy {
	p := &patchedPolicy{base: before, overrides: make(map[patchKey]bool, len(d.Changes))}
	for _, c := range d.Changes {
		p.overrides[patchKey{actor: c.Actor, store: c.Datastore, field: c.Field, perm: c.Perm}] = c.After
	}
	return p
}

type patchKey struct {
	actor, store, field string
	perm                accesscontrol.Permission
}

// patchedPolicy overlays point access changes on a base policy.
type patchedPolicy struct {
	base      accesscontrol.Policy
	overrides map[patchKey]bool
}

// Allows answers like the base policy except where a change overrides it.
func (p *patchedPolicy) Allows(actor, datastore, field string, perm accesscontrol.Permission) bool {
	if v, ok := p.overrides[patchKey{actor: actor, store: datastore, field: field, perm: perm}]; ok {
		return v
	}
	if p.base == nil {
		return false
	}
	return p.base.Allows(actor, datastore, field, perm)
}
