// The Go benchmarks this repository keeps: one per table and figure of the
// paper's evaluation, the value-risk pipeline (no benchmark/ workload touches
// that half of the paper) and the monitor's single-event Observe. Every other
// number — generation, assessment, ingest, membership changes, end to end and
// layer by layer — is a benchmark/ metric (benchmark/README.md, `make bench`);
// allocation counts are gated by TestAllocCeilings. Nothing here is recorded
// or gated; run with:
//
//	go test -run='^$' -bench=. -benchmem .
//
// Each benchmark asserts its headline number (violation counts, risk levels)
// once before the timed loop, so a regression fails the benchmark rather than
// silently timing wrong results.
package privascope_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"privascope"
	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/pseudorisk"
	"privascope/internal/risk"
	"privascope/internal/synth"
)

// BenchmarkFig1DataflowModel measures building the doctors'-surgery data-flow
// model of Fig. 1 and rendering its diagrams to DOT.
func BenchmarkFig1DataflowModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model := casestudy.Surgery()
		if model.DOT() == "" {
			b.Fatal("empty DOT output")
		}
	}
}

// BenchmarkFig2StateVariables measures the privacy state-vector operations of
// Fig. 2: a vocabulary of 5 actors and 6 fields (60 Boolean state variables)
// with sets, gets and change extraction.
func BenchmarkFig2StateVariables(b *testing.B) {
	vocab := core.NewVocabulary(
		[]string{"receptionist", "doctor", "nurse", "administrator", "researcher"},
		[]string{"name", "date_of_birth", "appointment", "medical_issues", "diagnosis", "treatment"},
	)
	if vocab.NumVariables() != 60 {
		b.Fatalf("state variables = %d, want 60", vocab.NumVariables())
	}
	actors := vocab.Actors()
	fields := vocab.Fields()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec := vocab.NewVector()
		prev := vec.Clone()
		for _, actor := range actors {
			for _, field := range fields {
				vec.Set(actor, field, core.HasIdentified)
				vec.Set(actor, field, core.CouldIdentify)
			}
		}
		if vec.CountTrue() != 60 {
			b.Fatal("unexpected count")
		}
		if len(vec.NewlyTrue(prev)) != 60 {
			b.Fatal("unexpected change size")
		}
	}
}

// BenchmarkFig3MedicalServiceLTS measures generating the privacy LTS of the
// full doctors'-surgery model (the Medical Service LTS of Fig. 3 plus the
// research service and the policy-permitted potential reads).
func BenchmarkFig3MedicalServiceLTS(b *testing.B) {
	model := casestudy.Surgery()
	p, err := privascope.Generate(model)
	if err != nil {
		b.Fatal(err)
	}
	if p.Stats().States == 0 {
		b.Fatal("empty LTS")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privascope.Generate(model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudyADisclosureRisk measures the full case-study IV-A
// pipeline: generate the LTS, assess the patient profile, apply the
// mitigation, and compare.
func BenchmarkCaseStudyADisclosureRisk(b *testing.B) {
	original := casestudy.Surgery()
	mitigated := casestudy.SurgeryWithPolicy(casestudy.MitigatedSurgeryACL())
	profile := casestudy.PatientProfile()

	// Correctness gate: medium before, at most low after.
	before, err := privascope.Assess(original, profile, privascope.AssessOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if before.Assessment.MaxRiskFor(casestudy.ActorAdministrator) != risk.LevelMedium {
		b.Fatalf("before risk = %v, want medium", before.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	}
	after, err := privascope.Assess(mitigated, profile, privascope.AssessOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if after.Assessment.MaxRiskFor(casestudy.ActorAdministrator) > risk.LevelLow {
		b.Fatalf("after risk = %v, want at most low", after.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beforeResult, err := privascope.Assess(original, profile, privascope.AssessOptions{})
		if err != nil {
			b.Fatal(err)
		}
		afterResult, err := privascope.Assess(mitigated, profile, privascope.AssessOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(privascope.CompareAssessments(beforeResult.Assessment, afterResult.Assessment)) == 0 {
			b.Fatal("no risk changes reported")
		}
	}
}

// BenchmarkTable1ValueRisk measures reproducing Table I: the per-record value
// risks and violation counts of the six 2-anonymised records under the
// height / age / age+height visibility progression.
func BenchmarkTable1ValueRisk(b *testing.B) {
	evaluator, err := privascope.NewValueRiskEvaluator(casestudy.TableIRecords(), casestudy.ResearchPolicy())
	if err != nil {
		b.Fatal(err)
	}
	progression := [][]string{{"height"}, {"age"}, {"age", "height"}}
	results, err := evaluator.EvaluateProgression(context.Background(), progression)
	if err != nil {
		b.Fatal(err)
	}
	if results[0].Violations != 0 || results[1].Violations != 2 || results[2].Violations != 4 {
		b.Fatalf("violations = %d/%d/%d, want 0/2/4",
			results[0].Violations, results[1].Violations, results[2].Violations)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluator.EvaluateProgression(context.Background(), progression); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4PseudonymisationLTS measures layering the Table I value risks
// onto the metrics-study privacy LTS (the dotted risk transitions of Fig. 4).
func BenchmarkFig4PseudonymisationLTS(b *testing.B) {
	p, err := privascope.GenerateWithOptions(casestudy.Metrics(), privascope.GenerateOptions{
		FlowOrdering:   privascope.OrderDataDriven,
		PotentialReads: privascope.PotentialReadsOff,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := privascope.PseudonymisationOptions{
		Actor:  casestudy.ActorResearcher,
		Policy: casestudy.ResearchPolicy(),
		Table:  casestudy.TableIRecords(),
	}
	annotation, err := privascope.AnalyzePseudonymisation(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	if annotation.MaxViolations() != 4 {
		b.Fatalf("max violations = %d, want 4", annotation.MaxViolations())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privascope.AnalyzePseudonymisation(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUtilityMetrics measures the utility comparison of Section III-B
// (means, variances, generalisation loss) between a raw synthetic dataset and
// its 5-anonymised form.
func BenchmarkUtilityMetrics(b *testing.B) {
	raw := synth.HealthRecords(synth.HealthRecordsOptions{Rows: 500, Seed: 9})
	anonymised, _, err := anonymize.KAnonymize(context.Background(), raw, []string{"age", "height"}, 5, anonymize.KAnonymizeOptions{
		InitialWidths: map[string]float64{"age": 5, "height": 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anonymize.CompareUtility(raw, anonymised, []string{"weight", "height", "age"}); err != nil {
			b.Fatal(err)
		}
		if _, err := anonymize.GeneralizationLoss(raw, anonymised, []string{"age", "height"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKAnonymizeScaling sweeps dataset size for the k-anonymiser and the
// value-risk computation used by the pseudonymisation analysis.
func BenchmarkKAnonymizeScaling(b *testing.B) {
	for _, rows := range []int{100, 1000, 5000} {
		raw := synth.HealthRecords(synth.HealthRecordsOptions{Rows: rows, Seed: 3})
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				anonymised, _, err := anonymize.KAnonymize(context.Background(), raw, []string{"age", "height"}, 5, anonymize.KAnonymizeOptions{
					InitialWidths: map[string]float64{"age": 5, "height": 5},
				})
				if err != nil {
					b.Fatal(err)
				}
				evaluator, err := pseudorisk.NewEvaluator(anonymised, casestudy.ResearchPolicy())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := evaluator.Evaluate(context.Background(), []string{"age", "height"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRuntimeMonitorObserve measures the per-event cost of the runtime
// monitor: matching an event against the current state's transitions and
// looking up the pre-computed risk.
func BenchmarkRuntimeMonitorObserve(b *testing.B) {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		b.Fatal(err)
	}
	monitor, err := privascope.NewMonitor(p, privascope.MonitorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	if err := monitor.RegisterUser(profile); err != nil {
		b.Fatal(err)
	}
	ev := privascope.Event{
		Actor:  casestudy.ActorReceptionist,
		Action: privascope.ActionCollect,
		UserID: profile.ID,
		Fields: []string{casestudy.FieldName, casestudy.FieldDateOfBirth},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := monitor.Observe(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValueRiskPipeline measures the scaled anonrisk pipeline end to end
// on two 100,000-row datasets that sit on either side of the property the
// dictionary-encoded table exploits. "repeated" is a pseudonymised release:
// every quasi-identifier cell is one of a handful, so the dictionaries are
// tiny and the classes huge. "unique" has none of that: id is a key, zip is
// drawn from 50,000 values and weight is a one-decimal float, so dictionaries
// are as long as the table and nearly every class is a singleton. Per table,
// ingest streams the CSV into a table (CSV rows/sec) and score builds a fresh
// evaluator — so class building and scoring are measured, not the cache —
// scores a four-scenario visibility progression and the re-identification
// attacker models through one class index (scored rows/sec: rows × scenarios).
func BenchmarkValueRiskPipeline(b *testing.B) {
	const rows = 100_000
	ctx := context.Background()
	policy := pseudorisk.Policy{TargetField: "weight", Closeness: 5, Confidence: 0.9}

	var unique bytes.Buffer
	repeated := pseudonymisedCSV(rows)
	rng := rand.New(rand.NewSource(12))
	unique.WriteString("id,zip,weight\n")
	for _, id := range rng.Perm(rows) {
		fmt.Fprintf(&unique, "%d,%d,%.1f\n", id, 10_000+rng.Intn(50_000), 45+90*rng.Float64())
	}

	for _, dataset := range []struct {
		name        string
		csv         []byte
		progression [][]string
		quasi       []string
	}{
		{"repeated", repeated, [][]string{{"age"}, {"height"}, {"city"}, {"age", "height", "city"}}, []string{"age", "height", "city"}},
		{"unique", unique.Bytes(), [][]string{{}, {"id"}, {"zip"}, {"id", "zip"}}, []string{"id", "zip"}},
	} {
		b.Run(dataset.name+"/ingest", func(b *testing.B) {
			b.ReportAllocs()
			var rowsRead int
			for i := 0; i < b.N; i++ {
				table, err := anonymize.ReadCSV(bytes.NewReader(dataset.csv), nil)
				if err != nil {
					b.Fatal(err)
				}
				rowsRead += table.NumRows()
			}
			b.ReportMetric(float64(rowsRead)/b.Elapsed().Seconds(), "rows/sec")
		})
		b.Run(dataset.name+"/score", func(b *testing.B) {
			table, err := anonymize.ReadCSV(bytes.NewReader(dataset.csv), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluator, err := pseudorisk.NewEvaluator(table, policy)
				if err != nil {
					b.Fatal(err)
				}
				results, err := evaluator.EvaluateProgression(ctx, dataset.progression)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(dataset.progression) {
					b.Fatalf("got %d results", len(results))
				}
				if _, err := anonymize.ReidentificationRiskIndexed(ctx, evaluator.Index(), dataset.quasi, 0.2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows*len(dataset.progression)*b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}
