// Package flight provides a context-aware, generics-based single-flight
// result cache: the building block behind every "compute once, share with all
// concurrent callers" structure in this module: the risk assessment cache
// (the one per-shape memo, for assessments and monitor alert tables alike), a
// model's compiled view, the equivalence-class index, the value-risk scenario
// cache and the public Engine's model cache.
//
// It differs from a plain sync.Once-per-entry cache in two ways that matter
// for a context-first API:
//
//   - Waiters are cancellable. A caller blocked on another caller's in-flight
//     computation returns its own ctx.Err() as soon as its context is done;
//     it never has to wait for work it no longer wants.
//   - Failures are not cached. When the computing caller (the "leader")
//     returns an error — in particular its own ctx.Err() when it was
//     cancelled mid-computation — the entry is forgotten, so one caller's
//     cancellation can never poison the cache for everyone else. Waiters
//     whose contexts are still live simply retry, electing a new leader.
//
// Successful results are cached forever and shared; callers must treat them
// as immutable.
package flight

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// entry is one in-flight or completed computation.
type entry[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// Group is a cache of single-flighted computations keyed by K. The zero value
// is ready to use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]

	hits   atomic.Int64
	misses atomic.Int64
}

// Do returns the cached value for key, computing it at most once across
// concurrent callers. The first caller for a key (the leader) runs fn with
// its own context; every other caller blocks until the leader finishes or the
// waiter's own context is done, whichever comes first.
//
// A successful result is cached and shared (callers must not mutate it). A
// failed computation is forgotten: the leader returns its own error, and the
// next caller recomputes. A waiter never returns the leader's error — when
// the leader fails, a waiter with a live context retries (electing or
// awaiting a new leader, recomputing a deterministic failure itself), and a
// cancelled waiter returns its own ctx.Err(); a cancelled caller therefore
// never fails an uncancelled one.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(ctx context.Context) (V, error)) (V, error) {
	var zero V
	for {
		g.mu.Lock()
		if g.entries == nil {
			g.entries = make(map[K]*entry[V])
		}
		e, ok := g.entries[key]
		if !ok {
			// This caller is the leader.
			e = &entry[V]{done: make(chan struct{})}
			g.entries[key] = e
			g.mu.Unlock()
			g.misses.Add(1)
			g.lead(ctx, key, e, fn)
			return e.val, e.err
		}
		g.mu.Unlock()

		select {
		case <-e.done:
			if e.err == nil {
				g.hits.Add(1)
				return e.val, nil
			}
			// The leader failed. Give up only if we are cancelled ourselves;
			// otherwise loop to elect a new leader (or wait on one).
			if err := ctx.Err(); err != nil {
				return zero, err
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// lead runs the computation as the leader of entry e. The cleanup — forget
// the entry on failure, then wake the waiters — runs in a defer so that a
// panicking fn cannot wedge the key: without it, e.done would never close
// and every current and future caller for the key would block forever. A
// panic is recorded as an error for the waiters (they retry or fail by
// their own contexts) while the panic itself propagates unrecovered to the
// leader's caller.
func (g *Group[K, V]) lead(ctx context.Context, key K, e *entry[V], fn func(ctx context.Context) (V, error)) {
	completed := false
	defer func() {
		if !completed {
			e.err = fmt.Errorf("flight: computation panicked")
		}
		if e.err != nil {
			g.mu.Lock()
			// Only forget the entry if it is still ours: a concurrent
			// Forget+recompute could have replaced it.
			if cur, ok := g.entries[key]; ok && cur == e {
				delete(g.entries, key)
			}
			g.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = fn(ctx)
	completed = true
}

// Size returns the number of entries, counting in-flight computations.
func (g *Group[K, V]) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.entries)
}

// Hits returns how many Do calls were served from a completed entry.
func (g *Group[K, V]) Hits() int64 { return g.hits.Load() }

// Misses returns how many Do calls ran the computation themselves.
func (g *Group[K, V]) Misses() int64 { return g.misses.Load() }
