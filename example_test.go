package privascope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"privascope"
	"privascope/internal/casestudy"
)

// ExampleAssess runs the paper's case study IV-A through the one-call
// pipeline: the patient consents only to the Medical Service, the
// administrator's maintenance access to the EHR surfaces as a medium risk,
// and the access-policy mitigation reduces it.
func ExampleAssess() {
	profile := casestudy.PatientProfile()

	before, err := privascope.Assess(casestudy.Surgery(), profile)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	after, err := privascope.Assess(
		casestudy.SurgeryWithPolicy(casestudy.MitigatedSurgeryACL()), profile)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("administrator risk before mitigation:",
		before.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	fmt.Println("administrator risk after mitigation: ",
		after.Assessment.MaxRiskFor(casestudy.ActorAdministrator))
	// Output:
	// administrator risk before mitigation: medium
	// administrator risk after mitigation:  low
}

// ExampleNewValueRiskEvaluator reproduces the violation counts of the paper's
// Table I: as the researcher sees more quasi-identifiers, more records
// violate the "weight within 5 kg at 90% confidence" policy.
func ExampleNewValueRiskEvaluator() {
	evaluator, err := privascope.NewValueRiskEvaluator(
		casestudy.TableIRecords(), casestudy.ResearchPolicy())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, visible := range [][]string{{"height"}, {"age"}, {"age", "height"}} {
		result, err := evaluator.Evaluate(context.Background(), visible)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("visible %v: %d violations\n", result.VisibleFields, result.Violations)
	}
	// Output:
	// visible [height]: 0 violations
	// visible [age]: 2 violations
	// visible [age height]: 4 violations
}

// ExampleGenerateWithOptions generates the privacy LTS with the parallel
// exploration engine: Workers goroutines expand the BFS frontier
// concurrently, and the merged result — state IDs, transition order, initial
// state — is byte-identical no matter how many workers explored it.
func ExampleGenerateWithOptions() {
	model := casestudy.Surgery()

	serial, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	parallel, err := privascope.GenerateWithOptions(model, privascope.GenerateOptions{Workers: 8})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	a, _ := json.Marshal(serial)
	b, _ := json.Marshal(parallel)
	fmt.Printf("states=%d transitions=%d\n", parallel.Stats().States, parallel.Stats().Transitions)
	fmt.Println("identical across worker counts:", bytes.Equal(a, b))
	// Output:
	// states=47 transitions=49
	// identical across worker counts: true
}

// ExampleGenerateWithOptions_workers shows the default worker count: leaving
// Workers at zero uses one exploration goroutine per available CPU, so large
// models are generated as fast as the hardware allows without any
// configuration — and still produce exactly the same model as a
// single-worker run.
func ExampleGenerateWithOptions_workers() {
	opts := privascope.GenerateOptions{
		FlowOrdering:   privascope.OrderDataDriven,
		PotentialReads: privascope.PotentialReadsOff,
		// Workers: 0 selects runtime.GOMAXPROCS(0) workers.
	}
	defaulted, err := privascope.GenerateWithOptions(casestudy.Surgery(), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	opts.Workers = 1
	serial, err := privascope.GenerateWithOptions(casestudy.Surgery(), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a, _ := json.Marshal(defaulted)
	b, _ := json.Marshal(serial)
	fmt.Println("states:", defaulted.Stats().States)
	fmt.Println("default workers match single-worker output:", bytes.Equal(a, b))
	// Output:
	// states: 20
	// default workers match single-worker output: true
}

// ExampleGenerate shows the size of the formal privacy model generated for
// the doctors'-surgery system of Fig. 1.
func ExampleGenerate() {
	p, err := privascope.Generate(casestudy.Surgery())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	stats := p.Stats()
	fmt.Printf("actors=%d fields=%d state-variables=%d\n", stats.Actors, stats.Fields, stats.StateVariables)
	fmt.Printf("states=%d transitions=%d potential-reads=%d\n",
		stats.States, stats.Transitions, stats.PotentialTransitions)
	// Output:
	// actors=5 fields=10 state-variables=100
	// states=47 transitions=49 potential-reads=34
}
