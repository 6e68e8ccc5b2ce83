// Command anonrisk computes the pseudonymisation value risks of a dataset
// (the analysis behind the paper's Table I): for each record it reports the
// probability that an adversary who sees the visible quasi-identifiers can
// pin the target field's value to within the closeness range, and counts the
// violations of a confidence policy.
//
// Usage:
//
//	anonrisk -data records.csv -target weight -closeness 5 -confidence 0.9 \
//	         -scenarios "height;age;age,height"
//
// The CSV file's first row is the header; interval cells are written as
// "lo-hi" and suppressed cells as "*". With -k and -quasi the tool first
// k-anonymises the raw dataset before scoring it, and reports the utility
// loss of the anonymisation.
//
// The pipeline is built for large tables: the CSV is streamed into
// dictionary-encoded columns (each distinct cell stored once, four bytes a
// row), rows are grouped and scored on the integer codes, and equivalence
// classes are computed once per quasi-identifier set and shared across
// scenarios and attacker models. A -scenarios field that is not a column of
// the dataset is an error. -max-rows caps the per-record rows printed for
// huge datasets. Ctrl-C cancels the run wherever it is.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"

	"privascope/internal/anonymize"
	"privascope/internal/pseudorisk"
	"privascope/internal/report"
)

func main() {
	// Ctrl-C cancels whichever analysis is in flight — k-anonymisation,
	// scenario scoring or re-identification — at its next context poll, and
	// the tool exits non-zero instead of being hard-killed mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "anonrisk: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "anonrisk:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("anonrisk", flag.ContinueOnError)
	dataPath := fs.String("data", "", "path to the dataset (CSV)")
	target := fs.String("target", "", "sensitive field whose value must not be inferable")
	closeness := fs.Float64("closeness", 0, "range within which a prediction counts as correct")
	confidence := fs.Float64("confidence", 0.9, "confidence threshold at which a record counts as violated")
	scenarios := fs.String("scenarios", "", "semicolon-separated visible-field sets, fields comma-separated")
	k := fs.Int("k", 0, "k-anonymise the dataset with this k before scoring (0 = dataset is already anonymised)")
	quasi := fs.String("quasi", "", "comma-separated quasi-identifier columns for -k and -reident")
	maxViolationPct := fs.Float64("max-violations", -1, "fail when any scenario's violation percentage exceeds this value (0-100)")
	reidentThreshold := fs.Float64("reident", -1, "also report re-identification risk, flagging records at or above this probability")
	maxRows := fs.Int("max-rows", 0, "cap the per-record rows printed in the value-risk table (0 = all rows)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *target == "" {
		return fmt.Errorf("the -data and -target flags are required")
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		return fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	table, err := anonymize.ReadCSV(f, nil)
	if err != nil {
		return err
	}

	doc := report.NewReport("Pseudonymisation value-risk analysis")

	if *k > 0 {
		quasiCols := splitList(*quasi)
		if len(quasiCols) == 0 {
			return fmt.Errorf("-k requires -quasi")
		}
		anonymised, result, err := anonymize.KAnonymize(ctx, table, quasiCols, *k, anonymize.KAnonymizeOptions{})
		if err != nil {
			return err
		}
		utility, err := anonymize.CompareUtility(table, anonymised, []string{*target})
		if err != nil {
			return err
		}
		loss, err := anonymize.GeneralizationLoss(table, anonymised, quasiCols)
		if err != nil {
			return err
		}
		summary := report.NewTable("metric", "value")
		summary.AddRow("k", strconv.Itoa(result.K))
		summary.AddRow("equivalence classes", strconv.Itoa(result.Classes))
		summary.AddRow("suppressed rows", strconv.Itoa(len(result.SuppressedRows)))
		summary.AddRow("generalisation loss (NCP)", fmt.Sprintf("%.3f", loss))
		if cu, ok := utility.Column(*target); ok {
			summary.AddRow("target mean shift", fmt.Sprintf("%.3f", cu.MeanShift()))
			summary.AddRow("target variance shift", fmt.Sprintf("%.3f", cu.VarianceShift()))
		}
		doc.AddTable("k-anonymisation", "", summary)
		table = anonymised
	}

	policy := pseudorisk.Policy{TargetField: *target, Closeness: *closeness, Confidence: *confidence}
	evaluator, err := pseudorisk.NewEvaluator(table, policy)
	if err != nil {
		return err
	}

	fieldSets := parseScenarios(*scenarios, table, *target)
	// The evaluator ignores a field the dataset lacks (an LTS field may have
	// no column); here that would score a typo as "nothing visible".
	for _, field := range slices.Concat(fieldSets...) {
		if _, ok := table.ColumnIndex(field); !ok {
			return fmt.Errorf("-scenarios names %q, which is not a column of the dataset (columns: %s)",
				field, strings.Join(table.ColumnNames(), ", "))
		}
	}
	results, err := evaluator.EvaluateProgression(ctx, fieldSets)
	if err != nil {
		return err
	}
	doc.AddTable("Per-record value risks",
		fmt.Sprintf("target %q, closeness %v, confidence %.0f%%", *target, *closeness, *confidence*100),
		report.TableICapped(evaluator, results, *maxRows))

	if *reidentThreshold >= 0 {
		quasiCols := splitList(*quasi)
		if len(quasiCols) == 0 {
			quasiCols = otherColumns(table, *target)
		}
		// The evaluator's class index is shared, so quasi-identifier sets
		// already partitioned for a value-risk scenario are not recomputed.
		reident, err := anonymize.ReidentificationRiskIndexed(ctx, evaluator.Index(), quasiCols, *reidentThreshold)
		if err != nil {
			return err
		}
		summary := report.NewTable("attacker model", "risk")
		summary.AddRow("prosecutor (highest record risk)", fmt.Sprintf("%.3f", reident.RiskFor(anonymize.AttackerProsecutor)))
		summary.AddRow("marketer (average record risk)", fmt.Sprintf("%.3f", reident.RiskFor(anonymize.AttackerMarketer)))
		summary.AddRow(fmt.Sprintf("records at risk (>= %.2f)", *reidentThreshold),
			fmt.Sprintf("%d/%d", reident.AtRiskRecords, len(reident.Records)))
		summary.AddRow("smallest equivalence class", strconv.Itoa(reident.SmallestClass))
		doc.AddTable("Re-identification risk", "", summary)
	}

	if _, err := doc.WriteTo(out); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}

	if *maxViolationPct >= 0 {
		if err := pseudorisk.CheckThreshold(results, *maxViolationPct/100); err != nil {
			return err
		}
	}
	return nil
}

// parseScenarios turns the -scenarios flag into visible-field sets. When the
// flag is empty, a default progression over the non-target columns is used:
// each column alone, then all of them together.
func parseScenarios(raw string, table *anonymize.Table, target string) [][]string {
	if strings.TrimSpace(raw) != "" {
		var out [][]string
		for _, group := range strings.Split(raw, ";") {
			out = append(out, splitList(group))
		}
		return out
	}
	others := otherColumns(table, target)
	out := make([][]string, 0, len(others)+1)
	for _, name := range others {
		out = append(out, []string{name})
	}
	if len(others) > 1 {
		out = append(out, others)
	}
	return out
}

// otherColumns returns the table's column names without the target's.
func otherColumns(table *anonymize.Table, target string) []string {
	return slices.DeleteFunc(table.ColumnNames(), func(name string) bool { return name == target })
}

func splitList(raw string) []string {
	var out []string
	for _, part := range strings.Split(raw, ",") {
		if trimmed := strings.TrimSpace(part); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
