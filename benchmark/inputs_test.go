package main

import (
	"testing"

	"privascope/internal/casestudy"
)

// TestSameSeedSameInputs: the generated inputs are a pure function of the
// seed, for every workload.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := inputDigest(w.Name, 7, miniSizes)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := inputDigest(w.Name, 7, miniSizes)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs: %s and %s", w.Name, a, b)
		}
		c, err := inputDigest(w.Name, 8, miniSizes)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

// TestStreamOrder: the stream visits every user's script positions in order,
// cohort by cohort, and exactly one user in alertEvery ends in an alerting
// event, half denied and half unmodelled — whatever the seed.
func TestStreamOrder(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		in := newIngestInputs(seed, 512, 128, 0)
		next := make(map[string]int)
		denied, unmodelled := 0, 0
		script := casestudy.MedicalServiceEvents("")
		for k := 0; k < in.streamLen(); k++ {
			ev := in.at(k)
			pos := next[ev.UserID]
			next[ev.UserID]++
			if ev.Action != script[pos].Action || ev.Datastore != script[pos].Datastore {
				t.Fatalf("seed %d: event %d is user %s's %s on %q, want script position %d", seed, k, ev.UserID, ev.Action, ev.Datastore, pos)
			}
			if ev.Denied {
				denied++
			}
			if ev.Actor == casestudy.ActorResearcher {
				unmodelled++
			}
			if (ev.Denied || ev.Actor == casestudy.ActorResearcher) && pos != len(script)-1 {
				t.Fatalf("seed %d: alerting event at script position %d", seed, pos)
			}
		}
		if len(next) != 512 {
			t.Errorf("seed %d: stream covers %d users, want 512", seed, len(next))
		}
		for id, n := range next {
			if n != len(script) {
				t.Fatalf("seed %d: user %s has %d events, want %d", seed, id, n, len(script))
			}
		}
		if denied != 4 || unmodelled != 4 {
			t.Errorf("seed %d: %d denied and %d unmodelled users, want 4 and 4", seed, denied, unmodelled)
		}
	}
}

// TestStreamFromLaterPosition: ingest_rebalance's stream starts where set-up
// left every user, part-way through the script.
func TestStreamFromLaterPosition(t *testing.T) {
	in := newIngestInputs(1, 256, 256, 2)
	if got, want := in.streamLen(), 256*4; got != want {
		t.Fatalf("stream of %d events, want %d", got, want)
	}
	script := casestudy.MedicalServiceEvents("")
	if first, last := in.at(0), in.at(in.streamLen()-1); first.Datastore != script[2].Datastore || last.Actor != script[5].Actor {
		t.Errorf("stream runs from %+v to %+v, want script positions 2 to 5", first, last)
	}
}
