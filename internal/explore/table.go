package explore

// stateTable is an open-addressing hash table mapping packed states to their
// dense int32 IDs. It stores no key bytes of its own: a state's words live in
// the caller's retained slab at offset id*words, so an entry is just the
// 64-bit hash (to skip almost all word comparisons) and the ID.
//
// A state's home slot is hash & mask, so the table is only as good as the
// hash's low bits are mixed (see HashWords). Collisions probe linearly in
// Robin Hood order — along a run, entries are sorted by home slot — which
// keeps the longest probe near the mean and ends a lookup of an absent state
// at the first entry nearer its home than the state would be, not at the
// run's end. Every state is looked up absent twice before it is inserted
// (Emit, then the merge), so a miss must cost what a hit does: at 0.74 load
// both visit under 3 slots on average and under 20 at worst
// (TestTableProbeLength; plain linear probing visits 8 and 128 for a miss).
//
// Concurrency contract (matching the driver's phase structure): lookups may
// run concurrently from many workers during an expansion phase; inserts
// happen only from the single-threaded merge phase, with no concurrent
// lookups. The phases are separated by a WaitGroup barrier, which provides
// the necessary happens-before edges, so the table needs no locks at all.
type stateTable struct {
	// entries[i].id is the state ID plus one; zero marks an empty slot.
	entries []tableEntry
	count   int
	mask    uint64
}

type tableEntry struct {
	hash uint64
	id   int32
}

const initialTableSize = 1024 // power of two

func newStateTable() *stateTable {
	return &stateTable{entries: make([]tableEntry, initialTableSize), mask: initialTableSize - 1}
}

// HashWords hashes a packed state: FNV-1a over whole words, then the
// splitmix64 finaliser. FNV's multiply only carries a difference upward, and
// packed states differ mostly in high has/store bits and 16-bit progress
// counters, so their FNV hashes agree in the low bits a table masks out; the
// finaliser is a bijection in which every input bit reaches every output bit.
// Where a state sits in a table never decides its ID (numbering is BFS
// order), so no output depends on the hash. Exposed so expanders and replay
// indexes hash states consistently with the driver.
func HashWords(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// lookup returns the ID of the state equal to key, or (-1, false). slab holds
// every registered state back to back, w words each.
func (t *stateTable) lookup(slab []uint64, w int, hash uint64, key []uint64) (int32, bool) {
	i := hash & t.mask
	for dist := uint64(0); ; dist++ {
		e := t.entries[i]
		// Entries sit in home-slot order, so one nearer its home than the key
		// would be ends the search just as an empty slot does.
		if e.id == 0 || (i-e.hash)&t.mask < dist {
			return -1, false
		}
		if e.hash == hash {
			id := e.id - 1
			base := int(id) * w
			if wordsEqual(slab[base:base+w], key) {
				return id, true
			}
		}
		i = (i + 1) & t.mask
	}
}

// insert registers a state already appended to the slab. The caller
// guarantees the state is not present.
func (t *stateTable) insert(hash uint64, id int32) {
	if (t.count+1)*4 >= len(t.entries)*3 {
		old := t.entries
		t.entries = make([]tableEntry, len(old)*2)
		t.mask = uint64(len(t.entries) - 1)
		for _, e := range old {
			if e.id != 0 {
				t.place(e)
			}
		}
	}
	t.place(tableEntry{hash: hash, id: id + 1})
	t.count++
}

// place is Robin Hood insertion: the entry walks from its home slot and takes
// the slot of the first entry nearer its own home, which walks on in its turn.
func (t *stateTable) place(e tableEntry) {
	i := e.hash & t.mask
	for dist := uint64(0); ; dist++ {
		cur := &t.entries[i]
		if cur.id == 0 {
			*cur = e
			return
		}
		if d := (i - cur.hash) & t.mask; d < dist {
			e, *cur, dist = *cur, e, d
		}
		i = (i + 1) & t.mask
	}
}
