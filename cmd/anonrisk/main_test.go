package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privascope/internal/anonymize"
	"privascope/internal/casestudy"
	"privascope/internal/pseudorisk"
)

func tableIFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := anonymize.WriteCSV(f, casestudy.TableIRecords()); err != nil {
		t.Fatal(err)
	}
	return path
}

func rawFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := anonymize.WriteCSV(f, casestudy.RawMetricsRecords()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReproducesTableI(t *testing.T) {
	path := tableIFixture(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-data", path,
		"-target", "weight",
		"-closeness", "5",
		"-confidence", "0.9",
		"-scenarios", "height;age;age,height",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"height risk", "age risk", "age+height risk", "2/4", "3/4", "Violations:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Final violations row carries 0 2 4.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	last := strings.Fields(lines[len(lines)-1])
	if len(last) < 3 || last[len(last)-3] != "0" || last[len(last)-2] != "2" || last[len(last)-1] != "4" {
		t.Errorf("violations row = %v", last)
	}
}

func TestRunDefaultScenariosAndThreshold(t *testing.T) {
	path := tableIFixture(t)
	var out strings.Builder
	// Default scenarios: each non-target column alone, then both.
	if err := run(context.Background(), []string{"-data", path, "-target", "weight", "-closeness", "5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "age+height risk") {
		t.Error("default scenario progression missing combined column")
	}
	// A 50% violation cap is exceeded by the age+height scenario.
	err := run(context.Background(), []string{"-data", path, "-target", "weight", "-closeness", "5", "-max-violations", "50"}, &out)
	if !errors.Is(err, pseudorisk.ErrThresholdExceeded) {
		t.Errorf("error = %v, want ErrThresholdExceeded", err)
	}
}

func TestRunWithReidentificationReport(t *testing.T) {
	path := tableIFixture(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-data", path,
		"-target", "weight",
		"-closeness", "5",
		"-reident", "0.5",
		"-quasi", "age,height",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"Re-identification risk", "prosecutor", "marketer", "0.500", "6/6", "smallest equivalence class"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunWithKAnonymisation(t *testing.T) {
	path := rawFixture(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-data", path,
		"-target", "weight",
		"-closeness", "5",
		"-k", "2",
		"-quasi", "age,height",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"k-anonymisation", "equivalence classes", "generalisation loss", "Per-record value risks"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run(context.Background(), []string{"-data", "missing.csv", "-target", "weight"}, &out); err == nil {
		t.Error("missing data file accepted")
	}
	path := tableIFixture(t)
	if err := run(context.Background(), []string{"-data", path, "-target", "ghost"}, &out); err == nil {
		t.Error("unknown target accepted")
	}
	if err := run(context.Background(), []string{"-data", path, "-target", "weight", "-k", "2"}, &out); err == nil {
		t.Error("-k without -quasi accepted")
	}
}

// syntheticCSV writes a deterministic dataset mixing numeric, interval and
// categorical cells.
func syntheticCSV(t *testing.T, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synthetic.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "age,height,city,weight")
	cities := []string{"berlin", "paris", "london", "madrid"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < rows; i++ {
		lo := 150 + 10*rng.Intn(4)
		fmt.Fprintf(w, "%d,%d-%d,%s,%d\n",
			20+10*rng.Intn(6), lo, lo+10, cities[rng.Intn(len(cities))], 45+rng.Intn(90))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunMaxRowsElidesRecords(t *testing.T) {
	path := syntheticCSV(t, 3000)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-data", path,
		"-target", "weight",
		"-closeness", "5",
		"-scenarios", "height;age;age,height;city,age",
		"-reident", "0.2",
		"-quasi", "age,height",
		"-max-rows", "50",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "more records") {
		t.Error("-max-rows did not elide per-record rows")
	}
}

// TestRunRejectsUnknownScenarioField: the evaluator drops a field the dataset
// lacks, so a misspelt -scenarios entry the command let through would be
// scored as "nothing visible" and exit 0.
func TestRunRejectsUnknownScenarioField(t *testing.T) {
	path := tableIFixture(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"-data", path, "-target", "weight", "-closeness", "5", "-scenarios", "hieght;age",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), `"hieght"`) {
		t.Fatalf("error = %v, want one naming the misspelt field", err)
	}
	if out.Len() != 0 {
		t.Errorf("a report was printed for a rejected run:\n%s", out.String())
	}
}

// TestRunHonoursCancellation: every stage of the run takes the context.
func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"-data", rawFixture(t), "-target", "weight", "-k", "2", "-quasi", "age,height"}, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestRunRejectsDuplicateHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.csv")
	if err := os.WriteFile(path, []byte("age,age\n23,24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(context.Background(), []string{"-data", path, "-target", "age"}, &out)
	if err == nil || !strings.Contains(err.Error(), "duplicate CSV header") {
		t.Errorf("error = %v, want duplicate-header rejection", err)
	}
}
