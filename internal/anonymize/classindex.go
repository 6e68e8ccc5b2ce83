package anonymize

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"privascope/internal/flight"
)

// ClassIndex computes and caches the equivalence classes of one table. The
// value-risk analysis partitions the same dataset once per scenario and once
// more per attacker model; on a million-row table re-deriving those
// partitions from scratch dominates the run. The index removes both costs:
//
//   - per-column group keys are computed once (in parallel) and shared by
//     every partition that includes the column, so the scenario progression
//     "height", "age", "age+height" renders each cell's key exactly once;
//   - each distinct column set's classes are computed once and returned to
//     every later caller — the re-identification attacker models, the
//     LTS annotation's repeated at-risk states and the scenario scoring all
//     hit the same entries.
//
// Class building fans out over contiguous row chunks: each worker groups its
// chunk into a private hash map, and the chunk maps are merged in chunk
// order, so member lists stay in ascending row order and the merged result
// is byte-identical to the single-threaded Table.EquivalenceClasses output
// for any worker count (the same merge discipline as the LTS generator's
// frontier-order merge).
//
// A ClassIndex is safe for concurrent use. Both caches are single-flighted
// with context support (internal/flight): concurrent requests for the same
// partition share one computation, a caller waiting on another's build can
// abandon the wait when its own context is done, and a build aborted by
// cancellation is forgotten rather than cached, so one cancelled caller never
// poisons the index for others. The indexed table must not be mutated while
// the index is alive; mutate a clone or build a fresh index instead.
type ClassIndex struct {
	table   *Table
	workers int

	colKeys flight.Group[int, []string]
	classes flight.Group[string, [][]int]
}

// NewClassIndex builds an empty index over the table. workers sets the
// parallelism of key computation and class building; zero or negative
// selects runtime.GOMAXPROCS(0). The output is identical for any worker
// count.
func NewClassIndex(t *Table, workers int) *ClassIndex {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ClassIndex{table: t, workers: workers}
}

// Table returns the indexed table.
func (ix *ClassIndex) Table() *Table { return ix.table }

// Workers returns the configured worker count.
func (ix *ClassIndex) Workers() int { return ix.workers }

// Hits returns how many Classes calls were served from the cache.
func (ix *ClassIndex) Hits() int64 { return ix.classes.Hits() }

// Misses returns how many Classes calls computed a fresh partition.
func (ix *ClassIndex) Misses() int64 { return ix.classes.Misses() }

// Classes returns the equivalence classes of the rows over the given
// columns, computing them at most once per distinct column sequence. The
// result is shared between callers and must be treated as read-only. It is
// identical to Table.EquivalenceClasses(columns) for the same column order.
func (ix *ClassIndex) Classes(columns []string) ([][]int, error) {
	return ix.ClassesContext(context.Background(), columns)
}

// ClassesContext is Classes with cancellation: the class build polls ctx at
// chunk boundaries, and a caller blocked on another caller's in-flight build
// returns its own ctx.Err() as soon as ctx is done. A build aborted by
// cancellation is not cached; the next caller recomputes it.
func (ix *ClassIndex) ClassesContext(ctx context.Context, columns []string) ([][]int, error) {
	idxs, err := ix.table.resolveColumns(columns)
	if err != nil {
		return nil, err
	}
	return ix.classes.Do(ctx, classCacheKey(idxs), func(ctx context.Context) ([][]int, error) {
		return buildClassesKeyed(ctx, ix.table, idxs, ix.workers, ix.keysFor)
	})
}

// classCacheKey canonically encodes a column index sequence. Column order
// matters: it changes the composite keys and therefore the sorted order of
// the returned groups.
func classCacheKey(idxs []int) string {
	var b strings.Builder
	for i, idx := range idxs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return b.String()
}

// keysFor returns the cached per-row group keys of one column, computing
// them on first use with the index's worker pool.
func (ix *ClassIndex) keysFor(ctx context.Context, col int) ([]string, error) {
	return ix.colKeys.Do(ctx, col, func(ctx context.Context) ([]string, error) {
		return columnGroupKeys(ctx, ix.table, col, ix.workers)
	})
}

// columnGroupKeys renders GroupKey for every cell of one column, splitting
// the rows across workers. Each worker writes a disjoint range, so the
// result does not depend on scheduling.
func columnGroupKeys(ctx context.Context, t *Table, col, workers int) ([]string, error) {
	n := t.nrows
	keys := make([]string, n)
	values := t.cols[col]
	err := parallelRows(ctx, n, workers, func(ctx context.Context, lo, hi int) error {
		for r := lo; r < hi; r++ {
			if r&rowCancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			keys[r] = values[r].GroupKey()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// buildClasses groups the rows by their composite group key over the given
// column indices, computing keys directly from the cells.
func buildClasses(t *Table, idxs []int, workers int) [][]int {
	// A background context cannot fail, and no key source below can error,
	// so the error is structurally nil here.
	classes, _ := buildClassesContext(context.Background(), t, idxs, workers)
	return classes
}

// buildClassesContext is buildClasses with cancellation at chunk boundaries.
func buildClassesContext(ctx context.Context, t *Table, idxs []int, workers int) ([][]int, error) {
	return buildClassesKeyed(ctx, t, idxs, workers, func(ctx context.Context, col int) ([]string, error) {
		return columnGroupKeys(ctx, t, col, workers)
	})
}

// buildClassesKeyed is buildClassesContext with a pluggable per-column key
// source, so a ClassIndex can share key slices across partitions.
//
// Grouping fans out over contiguous row chunks. Each worker fills a private
// map for its chunk; the merge walks the chunk maps in chunk order, so every
// key's member list is the concatenation of ascending sub-ranges — the exact
// row order a sequential pass produces. Group order is sorted by key, as in
// Table.EquivalenceClasses. Workers poll ctx every rowCancelCheckMask+1 rows
// and the pool is joined before returning, so cancellation is prompt and
// leak-free.
func buildClassesKeyed(ctx context.Context, t *Table, idxs []int, workers int, keysFor func(ctx context.Context, col int) ([]string, error)) ([][]int, error) {
	n := t.nrows
	if n == 0 {
		return nil, ctx.Err()
	}
	// No grouping columns: every row is indistinguishable, one shared class.
	if len(idxs) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}

	colKeys := make([][]string, len(idxs))
	for j, idx := range idxs {
		keys, err := keysFor(ctx, idx)
		if err != nil {
			return nil, err
		}
		colKeys[j] = keys
	}
	// Composite keys are length-prefixed so the encoding is injective: a
	// separator character could appear inside a categorical value and alias
	// two distinct rows into one class.
	rowKey := func(r int) string {
		if len(colKeys) == 1 {
			return colKeys[0][r]
		}
		var b strings.Builder
		for _, keys := range colKeys {
			k := keys[r]
			b.WriteString(strconv.Itoa(len(k)))
			b.WriteByte(':')
			b.WriteString(k)
		}
		return b.String()
	}

	chunks := rowChunks(n, workers)
	chunkGroups := make([]map[string][]int, len(chunks))
	chunkErrs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for c, chunk := range chunks {
		wg.Add(1)
		go func(c int, lo, hi int) {
			defer wg.Done()
			groups := make(map[string][]int)
			for r := lo; r < hi; r++ {
				if r&rowCancelCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						chunkErrs[c] = err
						return
					}
				}
				key := rowKey(r)
				groups[key] = append(groups[key], r)
			}
			chunkGroups[c] = groups
		}(c, chunk[0], chunk[1])
	}
	wg.Wait()
	for _, err := range chunkErrs {
		if err != nil {
			return nil, err
		}
	}

	// Deterministic merge: chunk maps are walked in chunk order, so member
	// sub-lists concatenate in ascending row order; groups sort by key.
	merged := make(map[string][]int, len(chunkGroups[0]))
	keys := make([]string, 0, len(chunkGroups[0]))
	for _, groups := range chunkGroups {
		for key, rows := range groups {
			if _, ok := merged[key]; !ok {
				keys = append(keys, key)
			}
			merged[key] = append(merged[key], rows...)
		}
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, merged[k])
	}
	return out, nil
}

// rowChunks splits [0, n) into up to `workers` contiguous ranges of
// near-equal size. Returned as [lo, hi) pairs in ascending order.
func rowChunks(n, workers int) [][2]int {
	if workers <= 1 || n < 2*minChunkRows {
		return [][2]int{{0, n}}
	}
	chunkCount := workers
	if max := n / minChunkRows; chunkCount > max {
		chunkCount = max
	}
	out := make([][2]int, 0, chunkCount)
	size := n / chunkCount
	rem := n % chunkCount
	lo := 0
	for c := 0; c < chunkCount; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// minChunkRows keeps tiny tables on the sequential path: below this many
// rows per chunk the goroutine handoff costs more than the grouping.
const minChunkRows = 1024

// rowCancelCheckMask spaces out ctx polls on per-row hot loops: a worker
// polls whenever its row index is a multiple of 4096, i.e. at least once
// every 4096 rows within its range (a chunk shorter than that may not poll
// at all, which is fine — its remaining work is bounded). This keeps the
// poll cost invisible while bounding cancellation latency to microseconds
// of work.
const rowCancelCheckMask = 4095

// parallelRows runs fn over contiguous sub-ranges of [0, n) using up to
// `workers` goroutines. fn must only touch its own range; it receives ctx so
// it can poll for cancellation, and the first non-nil error (in chunk order)
// is returned after all workers are joined.
func parallelRows(ctx context.Context, n, workers int, fn func(ctx context.Context, lo, hi int) error) error {
	chunks := rowChunks(n, workers)
	if len(chunks) == 1 {
		return fn(ctx, chunks[0][0], chunks[0][1])
	}
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for c, chunk := range chunks {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = fn(ctx, lo, hi)
		}(c, chunk[0], chunk[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
