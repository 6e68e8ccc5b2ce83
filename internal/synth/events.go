package synth

import (
	"math/rand"

	"privascope/internal/core"
	"privascope/internal/service"
)

// RandomEventStream draws a runtime event stream from a privacy LTS: each
// user's events are mostly a random walk along the model's transitions
// (events the monitor will match), mixed with unmodelled operations and
// occasional denied operations, and the per-user streams are interleaved
// round-robin so every partitioning of the stream — cluster node
// assignments — sees the same per-user order. Like everything in this
// package it is a pure function of the generator state, which is what lets
// the property harness replay a failing stream from its seed.
func RandomEventStream(rng *rand.Rand, p *core.PrivacyLTS, users []string, perUser int) []service.Event {
	streams := make([][]service.Event, len(users))
	for u, id := range users {
		cursor := p.InitialState()
		for len(streams[u]) < perUser {
			outs := p.Graph.Outgoing(cursor)
			switch {
			case len(outs) > 0 && rng.Float64() < 0.8:
				tr := outs[rng.Intn(len(outs))]
				label := core.LabelOf(tr)
				streams[u] = append(streams[u], service.Event{
					Actor: label.Actor, Action: label.Action, Datastore: label.Datastore,
					Service: label.Service, Purpose: label.Purpose,
					UserID: id, Fields: label.FieldSet(),
				})
				cursor = tr.To
			default:
				// Noise: an operation the model does not declare, sometimes
				// denied by the policy before it took effect.
				actor := p.Vocab.Actors()[rng.Intn(len(p.Vocab.Actors()))]
				field := p.Vocab.Fields()[rng.Intn(len(p.Vocab.Fields()))]
				store := ""
				if n := len(p.Model.Datastores); n > 0 {
					store = p.Model.Datastores[rng.Intn(n)].ID
				}
				streams[u] = append(streams[u], service.Event{
					Actor: actor, Action: core.ActionRead, Datastore: store,
					UserID: id, Fields: []string{field}, Denied: rng.Intn(4) == 0,
				})
			}
		}
	}
	var out []service.Event
	for i := 0; i < perUser; i++ {
		for u := range users {
			out = append(out, streams[u][i])
		}
	}
	return out
}

// WalkScripts precomputes, per user, one maximal matched-event walk from the
// model's initial state (first outgoing transition at every step, so the
// script is deterministic). Benchmarks replay these scripts instead of
// drawing events inside the timed region; the privacy LTS is a DAG, so each
// script is finite and a replay needs the user's cursor reset between
// generations.
func WalkScripts(p *core.PrivacyLTS, users []string) [][]service.Event {
	scripts := make([][]service.Event, len(users))
	for u, id := range users {
		cursor := p.InitialState()
		for {
			outs := p.Graph.Outgoing(cursor)
			if len(outs) == 0 {
				break
			}
			tr := outs[0]
			label := core.LabelOf(tr)
			scripts[u] = append(scripts[u], service.Event{
				Actor: label.Actor, Action: label.Action, Datastore: label.Datastore,
				Service: label.Service, Purpose: label.Purpose,
				UserID: id, Fields: label.FieldSet(),
			})
			cursor = tr.To
		}
	}
	return scripts
}
