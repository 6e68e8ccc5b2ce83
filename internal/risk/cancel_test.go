package risk_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// countdownContext reports itself cancelled from its (after+1)-th Err call
// on: a cancellation that lands at a fixed poll of a walk, whatever the
// host's speed.
type countdownContext struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *countdownContext) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeCancelledWalkNotCached: an analysis of the 90,625-state model
// returns context.Canceled both for a context cancelled before it starts and
// for one cancelled while the findings are being placed, and the assessment
// cache keeps neither. Resolving the edge classes polls a handful of times,
// so the countdown is reached only inside the edge walk.
func TestAnalyzeCancelledWalkNotCached(t *testing.T) {
	p, err := core.Generate(synth.Model(synth.ModelSpec{Services: 6, FieldsPerService: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Graph.StateCount(); n != 90625 {
		t.Fatalf("model has %d states, want 90625", n)
	}
	profile := risk.UserProfile{ID: "u", DefaultSensitivity: 0.5}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	midWalk := &countdownContext{Context: context.Background(), after: 16}
	cache, err := risk.NewAssessmentCache(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{"already cancelled": cancelled, "mid-walk": midWalk} {
		if _, err := cache.AnalyzeContext(ctx, p, profile); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if n := cache.Size(); n != 0 {
			t.Fatalf("%s: the cache kept %d cancelled analyses", name, n)
		}
	}
	if polls := midWalk.polls.Load(); polls != midWalk.after+1 {
		t.Fatalf("the mid-walk analysis polled %d times, want it stopped at poll %d", polls, midWalk.after+1)
	}

	a, err := cache.AnalyzeContext(context.Background(), p, profile)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Findings) == 0 || cache.Size() != 1 {
		t.Fatalf("live analysis: %d findings, %d cached, want some findings and 1 cached", len(a.Findings), cache.Size())
	}
}
