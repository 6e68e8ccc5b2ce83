package core

import (
	"context"
	"encoding/binary"
	"strings"
	"sync"

	"privascope/internal/explore"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// assemble materialises the PrivacyLTS payload — public vectors, decoded
// store contents, and the transition graph — from a finished exploration
// result, keeping the exploration's dense state numbering throughout: one slab
// holds every public vector, store contents are decoded once per distinct
// store-segment image into the table states index (the maps are read-only
// through the PrivacyLTS API), and lts.FromParts builds the graph already
// compiled, state i named "s<i>".
func assemble(ctx context.Context, p *PrivacyLTS, cm *compiledModel, res *explore.Result, workers int) error {
	n := res.NumStates
	w := res.Words
	hasWords := cm.codec.hasWords

	p.vecWords = make([]uint64, n*hasWords)
	if err := fillVectors(ctx, cm, res, p.vecWords, workers); err != nil {
		return err
	}

	// storeOf first holds the first state with each state's store image, then
	// that state's table index.
	p.storeOf = make([]int32, n)
	storeSegLo, storeSegHi := hasWords, cm.codec.ctrlBase
	first := make(map[string]int32)
	var keyBuf []byte
	for i := 0; i < n; i++ {
		base := i * w
		keyBuf = keyBuf[:0]
		for _, word := range res.States[base+storeSegLo : base+storeSegHi] {
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, word)
		}
		f, ok := first[string(keyBuf)]
		if !ok {
			f = int32(i)
			first[string(keyBuf)] = f
		}
		p.storeOf[i] = f
	}
	p.storeSets = make([]map[string]schema.FieldSet, 0, len(first))
	for i, f := range p.storeOf {
		if int(f) < i {
			p.storeOf[i] = p.storeOf[f]
			continue
		}
		p.storeOf[i] = int32(len(p.storeSets))
		p.storeSets = append(p.storeSets, cm.decodeStores(res.StateWords(int32(i))))
	}

	// Workers build potential-read labels independently (expand.go's
	// per-worker cache), so how many objects carry one label value follows
	// the schedule. Keep the first object per distinct value, in edge order,
	// in the trace as well as the graph: from here on pointer identity is
	// value identity, which is what the graph's label table interns by (and
	// modelstore.Encode writes), so a compiled artifact is byte-identical for
	// any worker count.
	canon := labelCanon{
		byPtr:   make(map[*TransitionLabel]*TransitionLabel),
		byValue: make(map[labelValue]*TransitionLabel),
	}
	bulk := make([]lts.BulkEdge, len(res.Edges))
	for i := range res.Edges {
		e := &res.Edges[i]
		if l, ok := e.Label.(*TransitionLabel); ok && l != nil {
			e.Label = canon.of(l)
		}
		bulk[i] = lts.BulkEdge{From: e.From, To: e.To, Label: e.Label}
	}
	graph, err := lts.FromParts(n, 0, bulk)
	if err != nil {
		return err
	}
	p.Graph = graph
	return nil
}

// labelValue is a TransitionLabel's content as a comparable value; fields is
// the sorted field list joined by NUL.
type labelValue struct {
	action                                                           Action
	actor, datastore, purpose, service, flowKey, counterpart, fields string
	potential                                                        bool
}

// labelCanon maps each label object to the first object seen with the same
// value. byPtr spares rebuilding the value key for an object already seen,
// which is nearly every edge.
type labelCanon struct {
	byPtr   map[*TransitionLabel]*TransitionLabel
	byValue map[labelValue]*TransitionLabel
}

func (c *labelCanon) of(l *TransitionLabel) *TransitionLabel {
	if first, ok := c.byPtr[l]; ok {
		return first
	}
	v := labelValue{
		action: l.Action, actor: l.Actor, datastore: l.Datastore, purpose: l.Purpose,
		service: l.Service, flowKey: l.FlowKey, counterpart: l.Counterpart,
		fields: strings.Join(l.Fields, "\x00"), potential: l.Potential,
	}
	first, ok := c.byValue[v]
	if !ok {
		first = l
		c.byValue[v] = l
	}
	c.byPtr[l] = first
	return first
}

// fillVectors computes every state's public vector into the shared slab,
// splitting the state range across workers (the computation is per-state
// independent). Cancellation is polled every few thousand states.
func fillVectors(ctx context.Context, cm *compiledModel, res *explore.Result, vecSlab []uint64, workers int) error {
	n := res.NumStates
	hasWords := cm.codec.hasWords
	fill := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if i&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cm.publicVectorInto(res.StateWords(int32(i)), vecSlab[i*hasWords:(i+1)*hasWords])
		}
		return nil
	}
	if workers <= 1 || n < 4096 {
		return fill(0, n)
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi) //nolint:errcheck // the join below re-checks ctx
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}
