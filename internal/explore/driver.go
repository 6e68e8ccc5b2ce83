package explore

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"privascope/internal/lts"
)

// ErrStateLimit is returned by Run when the number of discovered states
// exceeds Config.MaxStates. Callers wrap it in their own domain error.
var ErrStateLimit = errors.New("explore: state count exceeds the configured maximum")

// Config configures one BFS run.
type Config struct {
	// Workers is the number of goroutines expanding each frontier generation;
	// values below one mean serial expansion. The Result is byte-identical
	// for every worker count.
	Workers int
	// MaxStates caps the number of discovered states; zero or negative means
	// unbounded. The cap is checked with exactly the cadence of the original
	// in-core BFS (once per merged frontier state), so the error triggers at
	// the same point of the same exploration.
	MaxStates int
}

// Expander enumerates the successors of a packed state. Implementations must
// be safe for concurrent Expand calls from multiple workers; per-worker
// scratch state belongs in Sink.Scratch.
type Expander interface {
	// Words is the fixed width of every packed state, in uint64 words.
	Words() int
	// Initial returns the initial state. The driver copies it.
	Initial() []uint64
	// Expand emits every successor of ps (read-only, valid only during the
	// call) to the sink, in the model's deterministic enumeration order.
	Expand(ps []uint64, sink *Sink)
}

// Edge is one discovered transition. Rule is an expander-defined tag
// identifying which model rule produced the edge; replay-style expanders use
// it to reuse a previous run's work.
type Edge struct {
	From, To int32
	Rule     int32
	Label    lts.Label
}

// Result is the complete outcome of a BFS run: the dense state slab, the
// edge list in deterministic discovery order, and the lookup structures a
// later run needs to replay it (the trace of the exploration).
type Result struct {
	// Words is the packed-state width; state id occupies
	// States[id*Words : (id+1)*Words].
	Words     int
	NumStates int
	States    []uint64
	// Edges is grouped by From in non-decreasing order (frontier order).
	Edges []Edge
	// Explored counts the states that were expanded (entered a frontier).
	Explored int

	expanded []uint64 // bitset: state entered a frontier
	table    *stateTable
}

// StateWords returns the packed words of state id, aliasing the slab.
func (r *Result) StateWords(id int32) []uint64 {
	base := int(id) * r.Words
	return r.States[base : base+r.Words]
}

// Lookup finds the ID of a packed state recorded in the result.
func (r *Result) Lookup(ps []uint64) (int32, bool) {
	return r.table.lookup(r.States, r.Words, HashWords(ps), ps)
}

// WasExpanded reports whether the state's successors were enumerated during
// the run (states discovered as terminal are recorded but never expanded).
func (r *Result) WasExpanded(id int32) bool {
	return r.expanded[int(id)/64]&(1<<(uint(id)%64)) != 0
}

func (r *Result) markExpanded(id int32) {
	r.expanded[int(id)/64] |= 1 << (uint(id) % 64)
}

// WithEdges returns a shallow clone of the result that shares the state
// slab, lookup table and expansion bitset but carries the given edge list.
// Replay uses it to re-label a wholesale-reused trace without re-running the
// exploration; edges must describe the same transitions (From/To/Rule) as the
// original for the clone to stay a valid trace.
func (r *Result) WithEdges(edges []Edge) *Result {
	c := *r
	c.Edges = edges
	return &c
}

// EdgeIndex returns per-state offsets into Edges: the edges leaving state s
// are Edges[idx[s]:idx[s+1]]. Valid because Edges is grouped by From.
func (r *Result) EdgeIndex() []int32 {
	idx := make([]int32, r.NumStates+1)
	e := 0
	for s := 0; s < r.NumStates; s++ {
		idx[s] = int32(e)
		for e < len(r.Edges) && r.Edges[e].From == int32(s) {
			e++
		}
	}
	idx[r.NumStates] = int32(len(r.Edges))
	return idx
}

// candidate is one successor discovered during an expansion phase; words
// point into a worker arena (or a borrowed slab) and are only valid until the
// next generation begins.
type candidate struct {
	words    []uint64
	label    lts.Label
	hash     uint64
	knownID  int32 // >= 0 when the state was already registered before this generation
	rule     int32
	terminal bool
}

// Sink collects the successors of the state currently being expanded. One
// sink exists per worker; Copy/Alloc carve per-candidate state buffers out of
// the worker's arena.
type Sink struct {
	arena wordArena
	cands []candidate
	words int
	slab  []uint64 // snapshot of Result.States for this generation
	table *stateTable

	// Scratch is per-worker storage for the Expander (label caches,
	// canonicalisation buffers, ...). The driver never touches it.
	Scratch any
}

// Alloc returns an uninitialised state buffer from the worker arena. The
// caller must overwrite every word before emitting it.
func (s *Sink) Alloc() []uint64 { return s.arena.alloc(s.words) }

// Copy returns an arena-backed copy of ps, ready to be mutated into a
// successor state.
func (s *Sink) Copy(ps []uint64) []uint64 {
	dst := s.arena.alloc(s.words)
	copy(dst, ps)
	return dst
}

// Emit records one successor. words may be arena-backed (Copy/Alloc) or
// borrowed from any stable slab (replay reuses a previous run's states); the
// driver copies the words of newly discovered states into its own slab. The
// successor is pre-resolved against the visited table here, on the worker,
// so the serial merge phase only re-hashes same-generation duplicates.
func (s *Sink) Emit(words []uint64, rule int32, label lts.Label, terminal bool) {
	h := HashWords(words)
	id, ok := s.table.lookup(s.slab, s.words, h, words)
	if !ok {
		id = -1
	}
	s.cands = append(reserve(s.cands, 1), candidate{
		words: words, label: label, hash: h, knownID: id, rule: rule, terminal: terminal,
	})
}

// reserve returns s with room for n more elements, at least doubling a full
// slice (from 1024 elements up). append grows a large slice by a quarter, so
// a slab reaching megabytes is copied some five times over, each time into
// pages yet to be faulted in; doubling copies an element twice at most.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(2*cap(s), len(s)+n, 1024))
	copy(grown, s)
	return grown
}

func (s *Sink) begin(slab []uint64, table *stateTable) {
	s.arena.reset()
	s.cands = s.cands[:0]
	s.slab = slab
	s.table = table
}

// cancelCheckMask spaces out ctx polls on the serial expansion loop:
// checking every 64th state keeps cancellation latency far below a
// millisecond without putting an atomic load in front of each expansion.
const cancelCheckMask = 63

// Run executes the level-synchronised BFS: each frontier generation is
// expanded by Config.Workers goroutines into per-worker arenas, then merged
// on one goroutine in frontier order, which makes state numbering and edge
// order deterministic regardless of the worker count. Cancellation is
// observed at state granularity during expansion and between generations
// during merge; every worker goroutine is joined before Run returns.
func Run(ctx context.Context, cfg Config, x Expander) (*Result, error) {
	w := x.Words()
	if w <= 0 {
		return nil, errors.New("explore: expander reports a non-positive state width")
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	maxStates := cfg.MaxStates
	if maxStates <= 0 {
		maxStates = int(^uint(0) >> 1)
	}

	res := &Result{Words: w, table: newStateTable()}
	init := x.Initial()
	if len(init) != w {
		return nil, errors.New("explore: initial state width does not match the expander's")
	}
	res.States = append(res.States, init...)
	res.NumStates = 1
	res.expanded = append(res.expanded, 0)
	res.table.insert(HashWords(init), 0)

	sinks := make([]*Sink, workers)
	for i := range sinks {
		sinks[i] = &Sink{words: w}
	}

	frontier := []int32{0}
	var next []int32
	var results [][]candidate

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cap(results) < len(frontier) {
			results = make([][]candidate, len(frontier))
		} else {
			results = results[:len(frontier)]
			for i := range results {
				results[i] = nil
			}
		}
		if err := expandPhase(ctx, sinks, res, frontier, results, x); err != nil {
			return nil, err
		}

		// Merge phase: single-threaded, in frontier order.
		next = next[:0]
		for i := range results {
			if res.NumStates > maxStates {
				return nil, ErrStateLimit
			}
			from := frontier[i]
			for ci := range results[i] {
				c := &results[i][ci]
				id := c.knownID
				isNew := false
				if id < 0 {
					// Not registered before this generation; it may have been
					// discovered earlier in this same merge.
					if found, ok := res.table.lookup(res.States, w, c.hash, c.words); ok {
						id = found
					} else {
						id = int32(res.NumStates)
						res.States = append(reserve(res.States, w), c.words...)
						res.NumStates++
						if int(id)/64 >= len(res.expanded) {
							res.expanded = append(res.expanded, 0)
						}
						res.table.insert(c.hash, id)
						isNew = true
					}
				}
				res.Edges = append(reserve(res.Edges, 1), Edge{From: from, To: id, Rule: c.rule, Label: c.label})
				if isNew && !c.terminal {
					next = append(next, id)
				}
			}
		}
		res.Explored += len(frontier)
		for _, id := range next {
			res.markExpanded(id)
		}
		frontier, next = next, frontier
	}
	res.markExpanded(0)
	// A Result is shared from here on (replay, WithEdges clones): no spare
	// capacity, so no later owner's append can write into another's slab.
	res.States, res.Edges = slices.Clip(res.States), slices.Clip(res.Edges)
	return res, nil
}

// expandPhase distributes the frontier over the worker pool; results[i]
// receives the candidates of frontier[i] as a sub-slice of the expanding
// worker's candidate buffer. Workers poll ctx before each expansion and the
// pool is always joined before returning.
func expandPhase(ctx context.Context, sinks []*Sink, res *Result, frontier []int32, results [][]candidate, x Expander) error {
	workers := len(sinks)
	if workers > len(frontier) {
		workers = len(frontier)
	}
	w := res.Words
	slab := res.States
	if workers <= 1 {
		s := sinks[0]
		s.begin(slab, res.table)
		for i, id := range frontier {
			if i&cancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			start := len(s.cands)
			x.Expand(slab[int(id)*w:int(id)*w+w], s)
			results[i] = s.cands[start:len(s.cands):len(s.cands)]
		}
		return nil
	}
	var nextIdx atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		s := sinks[wi]
		s.begin(slab, res.table)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(frontier) || ctx.Err() != nil {
					return
				}
				id := frontier[i]
				start := len(s.cands)
				x.Expand(slab[int(id)*w:int(id)*w+w], s)
				results[i] = s.cands[start:len(s.cands):len(s.cands)]
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
