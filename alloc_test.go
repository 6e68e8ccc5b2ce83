package privascope_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"privascope"
	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/modelstore"
	"privascope/internal/pseudorisk"
	"privascope/internal/risk"
	"privascope/internal/service"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

// raceDetector is set by race_test.go when the test binary is built with
// -race.
var raceDetector bool

// TestAllocCeilings is the repository's allocation budget: each row builds a
// fixture, counts the heap objects one operation allocates — every goroutine's,
// on one P, as testing.AllocsPerRun counts them — divides by the row's unit
// and fails above a ceiling of max(2 objects, 2 %) over the value measured at
// the commit that last set the row. A measured 0 stays 0. Timings belong to
// benchmark/; an allocation count is the one performance number that is the
// same on every host, so it is gated here, to within a rounding of itself.
//
// testing.AllocsPerRun warms up with a call of its own, and a user's script
// can be replayed only once per registration, so a row whose operation uses
// its fixture up measures with testutil.AllocsOnFresh: the warm-up gets one
// fixture, the measured call another. (A second pass over one fixture would
// measure unmodelled-event alerts, seven allocations an event, not ingest.)
//
// A row that goes red after a deliberate change: re-measure (the log line of
// a -v run prints the value) and write the new number in the table.
func TestAllocCeilings(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop items and moves net/http's counts")
	}
	ctx := context.Background()
	surgery, patient := casestudy.Surgery(), casestudy.PatientProfile()
	surgeryLTS := mustGenerate(t, surgery, privascope.GenerateOptions{})
	large := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3}) // 15,625 states
	profiles, stream := ingestFixture(2048)
	fleetProfiles, _ := ingestFixture(8192)
	const valueRiskRows = 10_000
	valueRiskCSV := pseudonymisedCSV(valueRiskRows)

	rows := []struct {
		name string
		// measured is allocations per unit at the commit that set the row.
		measured float64
		unit     string
		// run returns the allocations of one operation and how many units it
		// covered.
		run func(t *testing.T) (allocs float64, units int)
	}{
		// Generating the 15,625-state model with one worker.
		{"generate", 1699, "generation", func(t *testing.T) (float64, int) {
			return testing.AllocsPerRun(1, func() {
				mustGenerate(t, large, privascope.GenerateOptions{Workers: 1})
			}), 1
		}},
		// PrivacyLTS.Compiled on that model, 25,000 transitions: a fixed
		// number of per-edge tables, nothing allocated per edge.
		{"compile_view", 46, "view", func(t *testing.T) (float64, int) {
			fresh := func() *privascope.PrivacyModel {
				return mustGenerate(t, large, privascope.GenerateOptions{Workers: 1})
			}
			return testutil.AllocsOnFresh(fresh, func(p *privascope.PrivacyModel) { p.Compiled() }), 1
		}},
		// Engine.Assess of the case study, model and verdict cached.
		{"engine_assess_cached", 314, "assessment", func(t *testing.T) (float64, int) {
			engine := privascope.MustEngine(privascope.EngineOptions{})
			warm, err := engine.Assess(ctx, surgery, patient)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Assessment.OverallRisk == privascope.RiskNone {
				t.Fatal("the warm-up assessment found no risk: the row would measure a degenerate path")
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := engine.Assess(ctx, surgery, patient); err != nil {
					t.Fatal(err)
				}
			})
			if got := engine.Generations(); got != 1 {
				t.Fatalf("the cached engine ran %d generations, want 1", got)
			}
			return allocs, 1
		}},
		// One-shot privascope.Assess of the case study: generate, analyse, report.
		{"assess_one_shot", 737, "assessment", func(t *testing.T) (float64, int) {
			return testing.AllocsPerRun(3, func() {
				if _, err := privascope.Assess(surgery, patient, privascope.AssessOptions{}); err != nil {
					t.Fatal(err)
				}
			}), 1
		}},
		// An uncached risk analysis of the case study on its compiled model.
		{"risk_analyze", 86, "analysis", func(t *testing.T) (float64, int) {
			analyzer := risk.MustAnalyzer(risk.Config{})
			return testing.AllocsPerRun(3, func() {
				a, err := analyzer.Analyze(surgeryLTS, patient)
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Findings) == 0 {
					t.Fatal("no findings on the case-study model")
				}
			}), 1
		}},
		// modelstore.Decode of the default synthetic model's artifact.
		{"modelstore_decode", 343, "decode", func(t *testing.T) (float64, int) {
			m := synth.Model(synth.ModelSpec{})
			data, err := modelstore.Encode(mustGenerate(t, m, privascope.GenerateOptions{}))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := modelstore.Decode(data, m); err != nil {
					t.Fatal(err)
				}
			}), 1
		}},
		// Regenerating the 15,625-state model after a metadata-only edit.
		{"regenerate_metadata", 1090, "regeneration", func(t *testing.T) (float64, int) {
			relabelled := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
			relabelled.Flows[0].Purpose = "relabelled"
			gen := core.NewGenerator(core.Options{Workers: 1})
			prev, trace, _, err := gen.GenerateTracedContext(ctx, large)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(1, func() {
				_, _, report, err := gen.RegenerateContext(ctx, prev, trace, relabelled)
				if err != nil {
					t.Fatal(err)
				}
				if report.Fallback {
					t.Fatalf("the replay fell back: %s", report.FallbackReason)
				}
			}), 1
		}},
		// Monitor.IngestBatch of 2,048 users' scripts, every event matched.
		{"monitor_ingest_batch", 0, "event", func(t *testing.T) (float64, int) {
			fresh := func() *privascope.Monitor {
				monitor, err := privascope.NewMonitor(surgeryLTS, privascope.MonitorConfig{})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range profiles {
					if err := monitor.RegisterUser(p); err != nil {
						t.Fatal(err)
					}
				}
				return monitor
			}
			return testutil.AllocsOnFresh(fresh, func(monitor *privascope.Monitor) {
				if stats := monitor.IngestBatch(stream); stats.Matched != len(stream) {
					t.Fatalf("ingest stats %+v, want all %d events matched", stats, len(stream))
				}
			}), len(stream)
		}},
		// cluster.EncodeFrame of 512 events.
		{"encode_frame", 22, "frame", func(t *testing.T) (float64, int) {
			return testing.AllocsPerRun(3, func() {
				if _, err := cluster.EncodeFrame(stream[:512]); err != nil {
					t.Fatal(err)
				}
			}), 1
		}},
		// One node's POST /ingest of pre-encoded 512-event frames through
		// Node.Handler: decode, admit, queue, apply; every event matched.
		{"node_ingest", 0.055, "event", func(t *testing.T) (float64, int) {
			var frames [][]byte
			for start := 0; start < len(stream); start += 512 {
				frame, err := cluster.EncodeFrame(stream[start:min(start+512, len(stream))])
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, frame)
			}
			fresh := func() *cluster.Node {
				node, err := cluster.NewNode(surgeryLTS, cluster.NodeConfig{Name: "node0"})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(node.Close)
				for _, p := range profiles {
					if err := node.Monitor().RegisterUser(p); err != nil {
						t.Fatal(err)
					}
				}
				return node
			}
			return testutil.AllocsOnFresh(fresh, func(node *cluster.Node) {
				for _, frame := range frames {
					rec := httptest.NewRecorder()
					node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(frame)))
					if rec.Code != http.StatusAccepted {
						t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
					}
				}
				if err := node.Quiesce(ctx); err != nil {
					t.Fatal(err)
				}
				// Every event matched, whichever node a user landed on: a
				// frame the node mis-decoded or applied out of order would
				// raise unmodelled-behaviour alerts instead.
				if stats := node.Stats().Ingest; stats.Events != len(stream) || stats.Matched != len(stream) {
					t.Fatalf("node ingested %d events and matched %d, want %d of each", stats.Events, stats.Matched, len(stream))
				}
			}), len(stream)
		}},
		// Router.Register of 8,192 users on a two-node fleet.
		{"router_register", 19.20, "user", func(t *testing.T) (float64, int) {
			return testutil.AllocsOnFresh(func() *cluster.Local { return startFleet(t, surgeryLTS) }, func(c *cluster.Local) {
				if err := c.Router.Register(ctx, fleetProfiles); err != nil {
					t.Fatal(err)
				}
			}), len(fleetProfiles)
		}},
		// AddNode then RemoveNode of the joiner on that fleet, registered.
		{"join_leave", 19.26, "moved user", func(t *testing.T) (float64, int) {
			fresh := func() *cluster.Local {
				c := startFleet(t, surgeryLTS)
				if err := c.Router.Register(ctx, fleetProfiles); err != nil {
					t.Fatal(err)
				}
				return c
			}
			moved := 0
			allocs := testutil.AllocsOnFresh(fresh, func(c *cluster.Local) {
				moved = 0
				node, err := c.AddNode(ctx)
				if err != nil {
					t.Fatal(err)
				}
				moved += c.Router.Stats().LastChange.UsersMoved
				if err := c.RemoveNode(ctx, node.Name()); err != nil {
					t.Fatal(err)
				}
				moved += c.Router.Stats().LastChange.UsersMoved
			})
			if moved == 0 {
				t.Fatal("the join and the leave moved no users")
			}
			return allocs, moved
		}},
		// anonymize.ReadCSV of 10,000 rows by 4 columns, a few dozen distinct
		// cells a column: encoding/csv's one string per record, and nothing
		// per cell.
		{"valuerisk_read_csv", 1.026, "row", func(t *testing.T) (float64, int) {
			return testing.AllocsPerRun(3, func() {
				if _, err := anonymize.ReadCSV(bytes.NewReader(valueRiskCSV), nil); err != nil {
					t.Fatal(err)
				}
			}), valueRiskRows
		}},
		// A fresh evaluator on that table: four scenarios, then the attacker
		// models off the same class index. A scored row is a row of one
		// scenario's result.
		{"valuerisk_progression", 0.0072, "scored row", func(t *testing.T) (float64, int) {
			table, err := anonymize.ReadCSV(bytes.NewReader(valueRiskCSV), nil)
			if err != nil {
				t.Fatal(err)
			}
			policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9}
			progression := [][]string{{"age"}, {"height"}, {"city"}, {"age", "height", "city"}}
			return testing.AllocsPerRun(3, func() {
				evaluator, err := pseudorisk.NewEvaluator(table, policy)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := evaluator.EvaluateProgression(ctx, progression); err != nil {
					t.Fatal(err)
				}
				if _, err := anonymize.ReidentificationRiskIndexed(ctx, evaluator.Index(), progression[3], 0.2); err != nil {
					t.Fatal(err)
				}
			}), valueRiskRows * len(progression)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// Goroutines earlier tests left winding down can add objects to a
			// count and never hide one, so a row is measured again before it
			// fails: an operation that allocates more does so every time.
			for attempt := 1; ; attempt++ {
				allocs, units := row.run(t)
				perUnit := allocs / float64(units)
				ceiling := row.measured
				if ceiling > 0 {
					ceiling += max(2/float64(units), 0.02*row.measured)
				}
				t.Logf("%.3f allocations per %s (%.0f over %d), ceiling %.3f", perUnit, row.unit, allocs, units, ceiling)
				if perUnit <= ceiling {
					return
				}
				if attempt == 3 {
					t.Fatalf("%.3f allocations per %s, ceiling %.3f (measured %.3f when the row was set)",
						perUnit, row.unit, ceiling, row.measured)
				}
			}
		})
	}
}

func mustGenerate(t *testing.T, m *privascope.Model, opts privascope.GenerateOptions) *privascope.PrivacyModel {
	t.Helper()
	p, err := privascope.GenerateWithOptions(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pseudonymisedCSV renders a seeded pseudonymised release of n records: binned
// age and height, a city, an integer weight.
func pseudonymisedCSV(n int) []byte {
	var out bytes.Buffer
	cities := []string{"berlin", "paris", "london", "madrid", "rome", "vienna"}
	rng := rand.New(rand.NewSource(11))
	out.WriteString("age,height,city,weight\n")
	for i := 0; i < n; i++ {
		lo := 150 + 10*rng.Intn(4)
		fmt.Fprintf(&out, "%d,%d-%d,%s,%d\n",
			20+10*rng.Intn(6), lo, lo+10, cities[rng.Intn(len(cities))], 45+rng.Intn(90))
	}
	return out.Bytes()
}

// ingestFixture returns n patient profiles and their consented
// medical-service scripts interleaved round-robin, like live traffic: six
// events a user, each matching a declared transition and raising no alert.
func ingestFixture(n int) ([]risk.UserProfile, []service.Event) {
	profiles := make([]risk.UserProfile, n)
	scripts := make([][]service.Event, n)
	for i := range profiles {
		profiles[i] = casestudy.PatientProfile()
		profiles[i].ID = fmt.Sprintf("user-%d", i)
		scripts[i] = casestudy.MedicalServiceEvents(profiles[i].ID)
	}
	stream := make([]service.Event, 0, n*len(scripts[0]))
	for pos := range scripts[0] {
		for _, script := range scripts {
			stream = append(stream, script[pos])
		}
	}
	return profiles, stream
}

// startFleet starts a two-node local cluster that the test's end stops.
func startFleet(t *testing.T, p *privascope.PrivacyModel) *cluster.Local {
	t.Helper()
	c, err := cluster.StartLocal(p, 2, cluster.NodeConfig{}, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Stop(context.Background()) })
	return c
}
