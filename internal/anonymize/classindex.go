package anonymize

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"privascope/internal/flight"
)

// ClassIndex computes and caches the equivalence classes of one table. The
// value-risk analysis partitions the same dataset once per scenario and once
// more per attacker model; the index computes each distinct column
// sequence's classes once and returns them to every later caller — the
// re-identification attacker models, the LTS annotation's repeated at-risk
// states and the scenario scoring all hit the same entries.
//
// A ClassIndex is safe for concurrent use. The cache is single-flighted with
// context support (internal/flight): concurrent requests for the same
// partition share one computation, a caller waiting on another's build can
// abandon the wait when its own context is done, and a build aborted by
// cancellation is forgotten rather than cached, so one cancelled caller never
// poisons the index for others. The indexed table must not be mutated while
// the index is alive; mutate a clone or build a fresh index instead.
type ClassIndex struct {
	table   *Table
	classes flight.Group[string, [][]int]
}

// NewClassIndex builds an empty index over the table.
func NewClassIndex(t *Table) *ClassIndex { return &ClassIndex{table: t} }

// Table returns the indexed table.
func (ix *ClassIndex) Table() *Table { return ix.table }

// Hits returns how many Classes calls were served from the cache.
func (ix *ClassIndex) Hits() int64 { return ix.classes.Hits() }

// Misses returns how many Classes calls computed a fresh partition.
func (ix *ClassIndex) Misses() int64 { return ix.classes.Misses() }

// Classes returns the equivalence classes of the rows over the given
// columns, in Table.EquivalenceClasses' order, computing them at most once
// per distinct column sequence. The result is shared between callers and must
// be treated as read-only.
//
// The build polls ctx every few thousand rows, and a caller blocked on
// another caller's in-flight build returns its own ctx.Err() as soon as ctx
// is done. A build aborted by cancellation is not cached; the next caller
// recomputes it.
func (ix *ClassIndex) Classes(ctx context.Context, columns []string) ([][]int, error) {
	idxs, err := ix.table.resolveColumns(columns)
	if err != nil {
		return nil, err
	}
	// Column order is part of the key: it changes the composite keys and so
	// the order of the groups.
	return ix.classes.Do(ctx, fmt.Sprint(idxs), func(ctx context.Context) ([][]int, error) {
		return buildClasses(ctx, ix.table, idxs)
	})
}

// rowCancelCheckMask spaces out ctx polls on per-row loops: one every 4096
// rows is invisible and keeps the cancellation latency at microseconds.
const rowCancelCheckMask = 4095

// buildClasses groups the rows by their cells in the given columns. With no
// columns every row is indistinguishable and there is one class.
//
// The groups' order is that of their canonical keys — the cells' group keys,
// each length-prefixed when there are several so that no category can alias
// two classes. Length-prefixed components are prefix-free, so that order is
// the lexicographic order of the tuples of components, and a component's
// rank within its column depends on the dictionary alone: no key is rendered
// per row or per class. The rows are sorted by one column's ranks after
// another, last column first, each pass a stable counting sort; that leaves
// them in tuple order, ascending within a tuple, and the classes are the runs.
func buildClasses(ctx context.Context, t *Table, idxs []int) ([][]int, error) {
	n := t.nrows
	if n == 0 {
		return nil, ctx.Err()
	}
	rows, scratch := make([]int, n), make([]int, n)
	for r := range rows {
		rows[r] = r
	}
	// ranks[idx] is column idx's: entries that hold one value share a rank.
	ranks := make([][]int32, len(t.cols))
	for j := len(idxs) - 1; j >= 0; j-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		col := &t.cols[idxs[j]]
		rank, distinct := col.ranks(len(idxs) > 1)
		ranks[idxs[j]] = rank
		// slot[k] is where the next row of rank k goes.
		slot := make([]int, distinct+1)
		for _, code := range col.codes {
			slot[rank[code]+1]++
		}
		for k := 1; k < len(slot); k++ {
			slot[k] += slot[k-1]
		}
		for i, r := range rows {
			if i&rowCancelCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			k := rank[col.codes[r]]
			scratch[slot[k]] = r
			slot[k]++
		}
		rows, scratch = scratch, rows
	}

	// A class ends where the next row differs; scratch is free to hold the ends.
	differ := func(a, b int) bool {
		return slices.ContainsFunc(idxs, func(idx int) bool {
			codes := t.cols[idx].codes
			return ranks[idx][codes[a]] != ranks[idx][codes[b]]
		})
	}
	ends := scratch[:0]
	for i := 1; i <= n; i++ {
		if i == n || differ(rows[i-1], rows[i]) {
			ends = append(ends, i)
		}
	}
	classes := make([][]int, len(ends))
	start := 0
	for c, end := range ends {
		classes[c] = rows[start:end:end]
		start = end
	}
	return classes, nil
}

// ranks returns, for each dictionary entry, the position of its group key
// among the column's distinct group keys in sorted order — length-prefixed,
// the way a composite key spells its components, when prefixed is set — and
// the number of distinct keys. Entries that hold one value share a rank.
func (c *column) ranks(prefixed bool) (rank []int32, distinct int) {
	// Every key is rendered into one buffer and sorted as a slice of it.
	var key []byte
	keys := make([]byte, 0, 16*len(c.dict))
	ends := make([]int, len(c.dict))
	for code, v := range c.dict {
		key = v.appendGroupKey(key[:0])
		if prefixed {
			keys = strconv.AppendInt(keys, int64(len(key)), 10)
			keys = append(keys, ':')
		}
		keys = append(keys, key...)
		ends[code] = len(keys)
	}
	type entry struct {
		key  string
		code int32
	}
	entries := make([]entry, len(c.dict))
	all, start := string(keys), 0
	for code, end := range ends {
		entries[code] = entry{all[start:end], int32(code)}
		start = end
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	rank = make([]int32, len(entries))
	for i, e := range entries {
		if i == 0 || e.key != entries[i-1].key {
			distinct++
		}
		rank[e.code] = int32(distinct - 1)
	}
	return rank, distinct
}
