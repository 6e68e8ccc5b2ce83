// Command privarisk runs the model-driven privacy risk pipeline over a
// data-flow model document: it generates the formal privacy model (LTS),
// analyses the risk of unwanted disclosure for a user profile, and prints a
// report. Optionally it repeats the analysis with a mitigated model and
// prints the before/after risk comparison of case study IV-A.
//
// Usage:
//
//	privarisk -model model.json -profile profile.json [flags]
//
// Flags:
//
//	-model string      path to the model document (JSON, with ACL)
//	-profile string    path to the user profile (JSON); when omitted, a
//	                   profile that consents to every service is used
//	-mitigated string  path to a second model document to compare against
//	-lts string        write the generated LTS to this DOT file
//	-json string       write the generated LTS to this JSON file
//	-markdown          render the report as Markdown instead of plain text
//	-ordering string   flow ordering: sequential (default) or data-driven
//	-model-cache string directory of the persistent compiled-model cache;
//	                   warm entries skip LTS generation entirely
//
// The privascope package's ExampleAssess produces the same analysis for the
// paper's doctors'-surgery case study without needing input files.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"privascope"
	"privascope/internal/core"
	"privascope/internal/report"
	"privascope/internal/risk"
)

func main() {
	// Ctrl-C cancels in-flight generation/analysis; the run aborts with
	// context.Canceled and the process exits non-zero instead of being
	// hard-killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "privarisk: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "privarisk:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("privarisk", flag.ContinueOnError)
	modelPath := fs.String("model", "", "path to the model document (JSON)")
	profilePath := fs.String("profile", "", "path to the user profile (JSON)")
	mitigatedPath := fs.String("mitigated", "", "path to a mitigated model document to compare against")
	ltsPath := fs.String("lts", "", "write the generated LTS to this DOT file")
	jsonPath := fs.String("json", "", "write the generated LTS to this JSON file")
	markdown := fs.Bool("markdown", false, "render the report as Markdown")
	ordering := fs.String("ordering", "sequential", "flow ordering: sequential or data-driven")
	modelCache := fs.String("model-cache", "", "directory of the persistent compiled-model cache (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("the -model flag is required")
	}

	model, err := privascope.LoadModel(*modelPath)
	if err != nil {
		return err
	}
	opts := core.Options{}
	switch *ordering {
	case "sequential", "":
		opts.FlowOrdering = core.OrderSequential
	case "data-driven":
		opts.FlowOrdering = core.OrderDataDriven
	default:
		return fmt.Errorf("unknown ordering %q (want sequential or data-driven)", *ordering)
	}

	profile, err := loadProfile(*profilePath, model)
	if err != nil {
		return err
	}

	// One Engine drives both the base and the mitigated analysis: models are
	// cached by content fingerprint and the profile's risk analysis is shared
	// per shape, so re-running with the same inputs never regenerates.
	engine, err := privascope.NewEngine(privascope.EngineOptions{Generate: opts, Risk: risk.Config{}, CacheDir: *modelCache})
	if err != nil {
		return err
	}
	generated, err := engine.Model(ctx, model)
	if err != nil {
		return err
	}
	assessment, err := engine.Analyze(ctx, model, profile)
	if err != nil {
		return err
	}

	doc := report.NewReport("Privacy risk analysis: " + model.Name)
	for _, s := range report.ModelSummary(generated).Sections() {
		doc.AddTable(s.Title, s.Body, s.Table)
	}
	for _, s := range report.DisclosureAssessment(assessment).Sections() {
		doc.AddTable(s.Title, s.Body, s.Table)
	}

	if *mitigatedPath != "" {
		mitigated, err := privascope.LoadModel(*mitigatedPath)
		if err != nil {
			return fmt.Errorf("loading mitigated model: %w", err)
		}
		if _, err := engine.Model(ctx, mitigated); err != nil {
			return fmt.Errorf("generating mitigated model: %w", err)
		}
		mitigatedAssessment, err := engine.Analyze(ctx, mitigated, profile)
		if err != nil {
			return err
		}
		changes := privascope.CompareAssessments(assessment, mitigatedAssessment)
		doc.AddTable("Risk change after mitigation",
			fmt.Sprintf("Overall risk: %s -> %s", assessment.OverallRisk, mitigatedAssessment.OverallRisk),
			report.RiskComparison(changes))
	}

	if *ltsPath != "" {
		if err := os.WriteFile(*ltsPath, []byte(generated.DOT(core.DOTOptions{Name: "privacy_lts"})), 0o644); err != nil {
			return fmt.Errorf("writing LTS DOT: %w", err)
		}
	}
	if *jsonPath != "" {
		data, err := json.Marshal(generated)
		if err != nil {
			return fmt.Errorf("encoding LTS: %w", err)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return fmt.Errorf("writing LTS JSON: %w", err)
		}
	}

	write := doc.WriteTo
	if *markdown {
		write = doc.WriteMarkdownTo
	}
	if _, err := write(out); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

// loadProfile reads the user profile, or builds a consent-to-everything
// profile when no path is given.
func loadProfile(path string, model *privascope.Model) (privascope.UserProfile, error) {
	if path == "" {
		return privascope.UserProfile{
			ID:                 "default-user",
			ConsentedServices:  model.ServiceIDs(),
			DefaultSensitivity: 0.5,
		}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return privascope.UserProfile{}, fmt.Errorf("reading profile: %w", err)
	}
	var profile privascope.UserProfile
	if err := json.Unmarshal(data, &profile); err != nil {
		return privascope.UserProfile{}, fmt.Errorf("parsing profile: %w", err)
	}
	if err := profile.Validate(); err != nil {
		return privascope.UserProfile{}, err
	}
	return profile, nil
}
