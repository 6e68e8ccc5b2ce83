package explore

import "testing"

// codecShapedKeys returns n distinct 3-word keys shaped like core's packed
// states: a has word and a store word that differ only in bits >= 16 and a
// control word of four 16-bit progress counters, the low 16 bits of every
// word equal across keys. from offsets the enumeration, so two calls with
// disjoint ranges share no key.
func codecShapedKeys(from, n int) []uint64 {
	keys := make([]uint64, 0, 3*n)
	for i := from; i < from+n; i++ {
		c1, c2, c3, rest := uint64(i%7), uint64(i/7%7), uint64(i/49%7), uint64(i/343)
		keys = append(keys,
			rest<<48|0xbeef,
			(rest^0x55)<<56|rest<<20&0xffff0000|0xbeef,
			c3<<48|c2<<32|c1<<16|1)
	}
	return keys
}

// TestTableProbeLength pins the visited table's cost as a count: at 0.74
// load, on keys whose differences sit where the codec puts them, a lookup
// visits a handful of slots. A hash that leaves the low bits unmixed fails
// this by two orders of magnitude (hash & mask reads exactly those bits).
func TestTableProbeLength(t *testing.T) {
	const w, slots = 3, 1 << 16
	n := slots * 74 / 100
	slab := codecShapedKeys(0, n)
	table := newStateTable()
	for id := 0; id < n; id++ {
		table.insert(HashWords(slab[id*w:id*w+w]), int32(id))
	}
	if len(table.entries) != slots {
		t.Fatalf("table has %d slots, want %d (load 0.74)", len(table.entries), slots)
	}
	for id := 0; id < n; id += 997 {
		if got, ok := table.lookup(slab, w, HashWords(slab[id*w:id*w+w]), slab[id*w:id*w+w]); !ok || got != int32(id) {
			t.Fatalf("lookup of key %d = (%d, %v)", id, got, ok)
		}
	}
	hits := table.probeStats(slab, w, slab)
	misses := table.probeStats(slab, w, codecShapedKeys(n, n))
	t.Logf("probes per lookup at load 0.74: hits mean %.2f max %d, misses mean %.2f max %d",
		hits.Mean, hits.Max, misses.Mean, misses.Max)
	for name, s := range map[string]ProbeStats{"hits": hits, "misses": misses} {
		if s.Mean > 4 || s.Max > 64 {
			t.Errorf("%s: mean %.2f probes (want <= 4), max %d (want <= 64)", name, s.Mean, s.Max)
		}
	}
}
