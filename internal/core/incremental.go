package core

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"

	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/lts"
)

// RegenerateContext rebuilds the privacy LTS for m, reusing a previous
// generation's exploration trace where the model delta proves it safe. prev
// and prevTrace must come from one GenerateTracedContext (or
// RegenerateContext) call of a generator with the same options; either may be
// nil to force a full regeneration.
//
// The delta between prev.Model and m (explore.Diff) decides the strategy:
// unsafe deltas — any structural change — fall back to full regeneration;
// identical, metadata and policy deltas replay the previous exploration,
// recomputing only the potential reads of readers whose access changed.
// Every path produces a PrivacyLTS byte-identical to a cold
// GenerateContext(m), with identical warnings; the report says which path
// ran and why.
func (g *Generator) RegenerateContext(ctx context.Context, prev *PrivacyLTS, prevTrace *explore.Result, m *dataflow.Model) (*PrivacyLTS, *explore.Result, *ExploreReport, error) {
	pre, err := g.prepare(m)
	if err != nil {
		return nil, nil, nil, err
	}
	full := func(reason, deltaKind string, affected int) (*PrivacyLTS, *explore.Result, *ExploreReport, error) {
		res, err := explore.Run(ctx, g.exploreConfig(), &coldExpander{cm: pre.cm, mode: g.opts.PotentialReads})
		if err != nil {
			return nil, nil, nil, g.wrapExploreErr(err)
		}
		report := &ExploreReport{
			Mode: "full", Fallback: true, FallbackReason: reason,
			DeltaKind: deltaKind, AffectedReaders: affected,
			States: res.NumStates, StatesExplored: res.Explored,
		}
		if err := assemble(ctx, pre.p, pre.cm, res, g.opts.Workers); err != nil {
			return nil, nil, nil, err
		}
		return pre.p, res, report, nil
	}

	if prev == nil || prevTrace == nil {
		return full("no previous generation to reuse", "", 0)
	}
	delta := explore.Diff(prev.Model, m)
	kind := delta.Kind.String()
	if delta.Kind == explore.DeltaUnsafe {
		return full(strings.Join(delta.Reasons, "; "), kind, 0)
	}
	if prevTrace.Words != pre.cm.codec.totalWords {
		// Unreachable for structurally-identical models; defends against a
		// trace generated under different options.
		return full("state encoding width changed", kind, len(delta.AffectedReaders))
	}

	if len(delta.AffectedReaders) == 0 {
		// No reader's access changed, so the previous state space, edge set
		// AND public vectors are provably those of the new model: skip
		// exploration entirely, re-deriving only the labels.
		return g.reuseTrace(ctx, pre, prev, prevTrace, delta, false)
	}
	if g.opts.PotentialReads == PotentialReadsOff {
		// Read access changed but potential reads are off: the state space and
		// edge set are still untouched, only the policy-derived "could" bits
		// of the public vectors need recomputing.
		return g.reuseTrace(ctx, pre, prev, prevTrace, delta, true)
	}
	rx := newReplayExpander(pre.cm, g.opts.PotentialReads, prevTrace, delta)
	res, err := explore.Run(ctx, g.exploreConfig(), rx)
	if err != nil {
		return nil, nil, nil, g.wrapExploreErr(err)
	}
	report := &ExploreReport{
		Mode: "replay", DeltaKind: kind,
		AffectedReaders: len(delta.AffectedReaders),
		ColdExpanded:    int(rx.cold.Load()),
		States:          res.NumStates, StatesExplored: res.Explored,
	}
	if err := assemble(ctx, pre.p, pre.cm, res, g.opts.Workers); err != nil {
		return nil, nil, nil, err
	}
	return pre.p, res, report, nil
}

// reuseTrace rebuilds the PrivacyLTS from the previous exploration without
// running the driver: the packed states and per-state store contents are
// shared with the previous generation (they are read-only through the
// PrivacyLTS API), declared-flow labels are re-derived from the new
// compilation (they may carry changed metadata such as flow purposes), and
// potential-read labels — purely structural — are reused. The public vectors
// are shared too unless recomputeVectors says the policy's read answers
// changed (the vectors' "could" bits derive from them). Only the label remap,
// the graph rebuild and any vector recompute are O(states+edges); nothing is
// re-explored.
func (g *Generator) reuseTrace(ctx context.Context, pre *prepared, prev *PrivacyLTS, prevTrace *explore.Result, delta *explore.Delta, recomputeVectors bool) (*PrivacyLTS, *explore.Result, *ExploreReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	// Declared-flow labels may carry changed metadata (flow purposes);
	// re-derive them from the new compilation. Most deltas change no label at
	// all, in which case the graph and trace are shared wholesale; otherwise
	// only the transition labels are swapped (lts.Relabeled shares every
	// index structure). Potential-read labels are purely structural — store
	// ID, actor ID, field names — and always reusable.
	changed := make(map[int32]bool, len(pre.cm.flows))
	anyChanged := false
	for i := range prevTrace.Edges {
		e := &prevTrace.Edges[i]
		if e.Rule < 0 {
			continue
		}
		c, seen := changed[e.Rule]
		if !seen {
			c = !labelsEqual(e.Label, pre.cm.flows[e.Rule].label)
			changed[e.Rule] = c
			anyChanged = anyChanged || c
		}
	}
	p := pre.p
	p.stores = prev.stores
	res := prevTrace
	if anyChanged {
		edges := make([]explore.Edge, len(prevTrace.Edges))
		copy(edges, prevTrace.Edges)
		labels := make([]lts.Label, len(edges))
		for i := range edges {
			if edges[i].Rule >= 0 && changed[edges[i].Rule] {
				edges[i].Label = pre.cm.flows[edges[i].Rule].label
			}
			labels[i] = edges[i].Label
		}
		graph, err := prev.Graph.Relabeled(labels)
		if err != nil {
			return nil, nil, nil, err
		}
		p.Graph = graph
		res = prevTrace.WithEdges(edges)
	} else {
		p.Graph = prev.Graph
	}
	p.vecWords = prev.vecWords
	if recomputeVectors {
		p.vecWords = make([]uint64, res.NumStates*pre.cm.codec.hasWords)
		if err := fillVectors(ctx, pre.cm, res, p.vecWords, g.opts.Workers); err != nil {
			return nil, nil, nil, err
		}
	}
	report := &ExploreReport{
		Mode: "replay", DeltaKind: delta.Kind.String(),
		AffectedReaders: len(delta.AffectedReaders),
		States:          res.NumStates, StatesExplored: 0,
	}
	return p, res, report, nil
}

// labelsEqual reports whether two transition labels have identical content
// (DeepEqual, following the label pointers). Used to detect which declared
// flows actually changed labels across a metadata delta.
func labelsEqual(a, b lts.Label) bool {
	return reflect.DeepEqual(a, b)
}

// replayExpander expands a state by replaying the previous trace's recorded
// successors: declared-flow edges reuse the old target states outright (the
// structure is unchanged, so the old targets are exactly what re-applying the
// flows would produce), potential reads of unaffected readers reuse the old
// target and label with the rule re-encoded against the new reader tables,
// and only affected readers are recomputed from the compiled model. States
// absent from the old trace — reachable only through changed policy — are
// expanded cold.
type replayExpander struct {
	cm   *compiledModel
	mode PotentialReadMode
	prev *explore.Result
	idx  []int32
	// affected[si] holds the reader actors of store si whose read access
	// changed; readerIdx[si] maps actor name to the NEW reader index.
	affected  []map[string]bool
	readerIdx []map[string]int
	cold      atomic.Int64
}

func newReplayExpander(cm *compiledModel, mode PotentialReadMode, prev *explore.Result, delta *explore.Delta) *replayExpander {
	rx := &replayExpander{cm: cm, mode: mode, prev: prev, idx: prev.EdgeIndex()}
	rx.affected = make([]map[string]bool, len(cm.stores))
	rx.readerIdx = make([]map[string]int, len(cm.stores))
	storeIdx := make(map[string]int, len(cm.stores))
	for si := range cm.stores {
		storeIdx[cm.stores[si].id] = si
		m := make(map[string]int, len(cm.stores[si].readers))
		for ri := range cm.stores[si].readers {
			m[cm.stores[si].readers[ri].actor] = ri
		}
		rx.readerIdx[si] = m
	}
	for _, rk := range delta.AffectedReaders {
		si, ok := storeIdx[rk.Datastore]
		if !ok {
			continue
		}
		if rx.affected[si] == nil {
			rx.affected[si] = make(map[string]bool)
		}
		rx.affected[si][rk.Actor] = true
	}
	return rx
}

func (e *replayExpander) Words() int        { return e.cm.codec.totalWords }
func (e *replayExpander) Initial() []uint64 { return e.cm.codec.newState() }

func (e *replayExpander) Expand(ps []uint64, sink *explore.Sink) {
	sc := scratchOf(sink, e.cm, nil)
	sid, ok := e.prev.Lookup(ps)
	if !ok || !e.prev.WasExpanded(sid) {
		e.cold.Add(1)
		expandInto(e.cm, ps, sink, sc, e.mode, nil)
		return
	}
	edges := e.prev.Edges[e.idx[sid]:e.idx[sid+1]]
	i := 0
	for ; i < len(edges) && edges[i].Rule >= 0; i++ {
		ed := &edges[i]
		sink.Emit(e.prev.StateWords(ed.To), ed.Rule, e.cm.flows[ed.Rule].label, false)
	}
	if e.mode == PotentialReadsOff {
		return
	}
	terminal := e.mode == PotentialReadsTerminal
	for si := range e.cm.stores {
		start := i
		for i < len(edges) {
			s2, _ := decodePotentialRule(edges[i].Rule)
			if s2 != si {
				break
			}
			i++
		}
		old := edges[start:i]
		aff := e.affected[si]
		if len(aff) == 0 {
			// No reader of this store changed: reuse every old edge, with the
			// rule re-encoded against the new reader table.
			for oi := range old {
				ed := &old[oi]
				actor := ed.Label.(*TransitionLabel).Actor
				sink.Emit(e.prev.StateWords(ed.To), encodePotentialRule(si, e.readerIdx[si][actor]), ed.Label, terminal)
			}
			continue
		}
		// Merge: walk the new reader table (sorted by actor, like the old
		// edges); affected readers are recomputed, the rest reuse their old
		// edge if one exists.
		readers := e.cm.stores[si].readers
		oi := 0
		for ri := range readers {
			actor := readers[ri].actor
			if aff[actor] {
				emitPotential(e.cm, ps, si, ri, terminal, sink, sc, nil)
				continue
			}
			for oi < len(old) && old[oi].Label.(*TransitionLabel).Actor < actor {
				oi++
			}
			if oi < len(old) && old[oi].Label.(*TransitionLabel).Actor == actor {
				ed := &old[oi]
				oi++
				sink.Emit(e.prev.StateWords(ed.To), encodePotentialRule(si, ri), ed.Label, terminal)
			}
		}
	}
}
