package main

import (
	"testing"
	"time"
)

// runMini takes one workload through set-up, a short measurement and its
// correctness gate at miniature size.
func runMini(t *testing.T, name string, traced bool) *outcome {
	t.Helper()
	def, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	e := &env{workload: name, seed: 5, seconds: 0.3, sizes: miniSizes, benchDir: t.TempDir()}
	if traced {
		e.trace = newTracer()
	}
	w := def.new()
	defer w.close()
	if err := w.setup(e); err != nil {
		t.Fatalf("%s: set-up: %v", name, err)
	}
	out := newOutcome()
	if err := w.run(e, out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Errorf("%s: %d of %d checked operations failed: %v", name, out.failed, out.attempted, out.failures)
	}
	if len(out.opMs) == 0 || out.work <= 0 || out.measured <= 0 {
		t.Errorf("%s: measured %d operations, %v units of work in %v", name, len(out.opMs), out.work, out.measured)
	}
	if traced && len(out.tracedOpMs) == 0 {
		t.Errorf("%s: the traced half measured no operation", name)
	}
	return out
}

// TestMiniatureWorkloads runs all six workloads through the correctness
// gate, untraced and traced, and checks that between them the traced runs
// produce every per-layer timing and size the catalog names.
func TestMiniatureWorkloads(t *testing.T) {
	layers := make(chan map[string]float64, 2*len(workloads))
	t.Run("group", func(t *testing.T) {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && w.Name == "ingest_rebalance" {
					// Its layer metrics come from the untraced run too, and a
					// second pair of membership cycles costs seconds of
					// server-shutdown waits.
					continue
				}
				name := w.Name
				if traced {
					name += "/traced"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					layers <- runMini(t, w.Name, traced).layer
				})
			}
		}
	})
	close(layers)
	measured := make(map[string]bool)
	for layer := range layers {
		for name, v := range layer {
			if v != 0 {
				measured[name] = true
			}
		}
	}
	for _, m := range perLayer {
		switch m.Unit {
		case "ms", "ns", "B", "1/s":
			// trace_overhead_share is computed by runWorkload; counts may
			// honestly be zero at this size.
			if !measured[m.Name] {
				t.Errorf("no miniature run measured %s", m.Name)
			}
		}
	}
}

// TestStolenOperationsAreSetAside: operations the hypervisor stole from are
// dropped while enough clean ones remain, and used when they do not.
func TestStolenOperationsAreSetAside(t *testing.T) {
	op := opSample{d: 10 * time.Millisecond, work: 5}
	out := newOutcome()
	for i := 0; i < minCleanOps; i++ {
		out.addOp(op)
	}
	out.stolen = []opSample{{d: time.Second, work: 5}}
	out.settleStolen()
	if len(out.opMs) != minCleanOps || out.work != 5*minCleanOps || out.layer["bench.ops_stolen"] != 1 {
		t.Errorf("enough clean operations: kept %d ops, work %v, %v counted stolen", len(out.opMs), out.work, out.layer["bench.ops_stolen"])
	}
	out = newOutcome()
	out.addOp(op)
	out.stolen = []opSample{{d: time.Second, work: 5}, {d: time.Second}}
	out.settleStolen()
	if len(out.opMs) != 3 || out.work != 10 || out.measured != time.Second+10*time.Millisecond {
		t.Errorf("too few clean operations: have %d ops, work %v in %v", len(out.opMs), out.work, out.measured)
	}
}

// TestFailureIsReported: an outcome with a failed check makes the record
// incorrect, which is what makes the command exit non-zero.
func TestFailureIsReported(t *testing.T) {
	out := newOutcome()
	out.check(true, 3, "fine")
	out.check(false, 2, "report differs: %s", "x")
	if out.attempted != 5 || out.failed != 2 || len(out.failures) != 1 {
		t.Errorf("attempted %d failed %d failures %v", out.attempted, out.failed, out.failures)
	}
}
