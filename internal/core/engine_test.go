package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// digestOf serialises the complete generated model (state IDs and variables,
// per-state store contents, transition order and labels) so two generation
// runs can be compared byte for byte.
func digestOf(t *testing.T, p *PrivacyLTS) string {
	t.Helper()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data) + "\n" + p.DOT(DOTOptions{VerboseStates: true})
}

func TestWorkersDefault(t *testing.T) {
	opts := Options{}.withDefaults()
	if opts.Workers < 1 {
		t.Errorf("default Workers = %d, want >= 1", opts.Workers)
	}
	if got := (Options{Workers: -3}).withDefaults().Workers; got < 1 {
		t.Errorf("negative Workers defaulted to %d, want >= 1", got)
	}
}

// TestPackedStateCodec checks the binary layout primitives the exploration
// engine relies on: progress counters and fired bits round trip, and the key
// of a state changes with every segment.
func TestPackedStateCodec(t *testing.T) {
	codec := newStateCodec(2, []string{"a", "b", "c"}, 2, 3, 5, OrderSequential)
	ps := codec.newState()
	if got := len(ps); got != codec.totalWords {
		t.Fatalf("state has %d words, want %d", got, codec.totalWords)
	}
	for svc := 0; svc < 3; svc++ {
		if codec.progress(ps, svc) != 0 {
			t.Errorf("initial progress of service %d not zero", svc)
		}
	}
	codec.bumpProgress(ps, 1)
	codec.bumpProgress(ps, 1)
	codec.bumpProgress(ps, 2)
	if codec.progress(ps, 0) != 0 || codec.progress(ps, 1) != 2 || codec.progress(ps, 2) != 1 {
		t.Errorf("progress = %d/%d/%d, want 0/2/1",
			codec.progress(ps, 0), codec.progress(ps, 1), codec.progress(ps, 2))
	}

	dd := newStateCodec(2, []string{"a", "b", "c"}, 2, 3, 5, OrderDataDriven)
	ds := dd.newState()
	for f := 0; f < 5; f++ {
		if dd.fired(ds, f) {
			t.Errorf("flow %d initially fired", f)
		}
	}
	dd.setFired(ds, 3)
	if !dd.fired(ds, 3) || dd.fired(ds, 2) {
		t.Error("setFired misbehaves")
	}
}

// TestGenerateWorkersDeterministic: the clinic model generated with 1, 2, 4
// and 8 workers yields byte-identical output under every combination of flow
// ordering and potential-read mode.
func TestGenerateWorkersDeterministic(t *testing.T) {
	model := clinicModel(t)
	for _, ordering := range []FlowOrdering{OrderSequential, OrderDataDriven} {
		for _, mode := range []PotentialReadMode{PotentialReadsOff, PotentialReadsTerminal, PotentialReadsFull} {
			base, err := GenerateWithOptionsContext(context.Background(), model, Options{
				FlowOrdering: ordering, PotentialReads: mode, Workers: 1,
			})
			if err != nil {
				t.Fatalf("ordering=%v mode=%v: %v", ordering, mode, err)
			}
			want := digestOf(t, base)
			for _, workers := range []int{2, 4, 8} {
				p, err := GenerateWithOptionsContext(context.Background(), model, Options{
					FlowOrdering: ordering, PotentialReads: mode, Workers: workers,
				})
				if err != nil {
					t.Fatalf("ordering=%v mode=%v workers=%d: %v", ordering, mode, workers, err)
				}
				if got := digestOf(t, p); got != want {
					t.Errorf("ordering=%v mode=%v: workers=%d output differs from workers=1",
						ordering, mode, workers)
				}
			}
		}
	}
}

// TestGenerateMaxStatesParallel: the state cap fires identically under
// parallel expansion.
func TestGenerateMaxStatesParallel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := GenerateWithOptionsContext(context.Background(), clinicModel(t), Options{MaxStates: 2, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "state space") {
			t.Errorf("workers=%d: expected state-space error, got %v", workers, err)
		}
	}
}
