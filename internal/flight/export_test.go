package flight

// Cached returns the completed value for key without computing anything.
// It reports false while the key is absent or still being computed.
func (g *Group[K, V]) Cached(key K) (V, bool) {
	var zero V
	g.mu.Lock()
	e, ok := g.entries[key]
	g.mu.Unlock()
	if !ok {
		return zero, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return zero, false
		}
		return e.val, true
	default:
		return zero, false
	}
}

// Forget drops the cached entry for key, if any; the next Do recomputes. An
// in-flight computation is not interrupted: its result is still returned to
// the callers already waiting on it, but it is not re-inserted into the
// cache — after a Forget, only a subsequent Do's computation is cached.
func (g *Group[K, V]) Forget(key K) {
	g.mu.Lock()
	delete(g.entries, key)
	g.mu.Unlock()
}
