package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: times are nanoseconds since the trace
// began, Parent is the index of the span that caused it (-1 for a root) and
// Op identifies the operation (cycle, generation, tick) all its spans share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// counterSample is one reading of a counter taken at a layer boundary.
type counterSample struct {
	Name  string  `json:"name"`
	At    int64   `json:"at_ns"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counter samples in memory and writes them out when
// the run ends. A nil tracer records nothing, which is how the untraced run
// shares the workload code without paying for it.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters []counterSample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) count(name string, value float64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.counters = append(t.counters, counterSample{Name: name, At: now, Value: value})
	t.mu.Unlock()
}

// durationsMs returns the duration of every span of the name, in
// milliseconds, in recording order.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// opSumsMs sums, per operation, the durations of the spans with one of the
// names, in milliseconds, ordered by operation. A stage that runs once per
// document is thereby reported per cycle.
func (t *tracer) opSumsMs(names ...string) []float64 {
	if t == nil {
		return nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := make(map[int64]float64)
	var ops []int64
	for _, s := range t.spans {
		if !want[s.Name] {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += float64(s.End-s.Start) / 1e6
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a] < ops[b] })
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// counterSum adds up every sample of the counter.
func (t *tracer) counterSum(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, c := range t.counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// counterMax is the largest sample of the counter (0 when never sampled).
func (t *tracer) counterMax(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	max := 0.0
	for _, c := range t.counters {
		if c.Name == name && c.Value > max {
			max = c.Value
		}
	}
	return max
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its child spans cover. Children may overlap
// one another (concurrent calls) and are clipped to the parent, so the
// covered part is the union of their intervals, not the sum.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			start, end := spans[k].Start, spans[k].End
			if start < reach {
				start = reach
			}
			if end > s.End {
				end = s.End
			}
			if end > start {
				covered += end - start
				reach = end
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Spans      []span           `json:"spans"`
	Counters   []counterSample  `json:"counters"`
	SelfTimeNs map[string]int64 `json:"self_time_ns"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counters: t.counters,
		SelfTimeNs: selfTimes(t.spans)}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
