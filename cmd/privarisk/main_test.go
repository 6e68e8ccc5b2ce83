package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/casestudy/casestudytest"
	"privascope/internal/dataflow"
)

// writeFixtures saves the surgery model, its mitigated variant and the
// patient profile into a temporary directory.
func writeFixtures(t *testing.T) (modelPath, mitigatedPath, profilePath string) {
	t.Helper()
	dir := t.TempDir()
	modelPath = filepath.Join(dir, "model.json")
	if err := dataflow.Save(casestudy.Surgery(), modelPath); err != nil {
		t.Fatal(err)
	}
	mitigatedPath = filepath.Join(dir, "mitigated.json")
	if err := dataflow.Save(casestudy.SurgeryWithPolicy(casestudytest.MitigatedSurgeryACL()), mitigatedPath); err != nil {
		t.Fatal(err)
	}
	profilePath = filepath.Join(dir, "profile.json")
	data, err := json.Marshal(casestudy.PatientProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(profilePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath, mitigatedPath, profilePath
}

func TestRunFullPipeline(t *testing.T) {
	modelPath, mitigatedPath, profilePath := writeFixtures(t)
	dir := t.TempDir()
	ltsPath := filepath.Join(dir, "lts.dot")
	jsonPath := filepath.Join(dir, "lts.json")

	var out strings.Builder
	err := run(context.Background(), []string{
		"-model", modelPath,
		"-profile", profilePath,
		"-mitigated", mitigatedPath,
		"-lts", ltsPath,
		"-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"doctors-surgery", "Findings", "administrator", "medium", "Risk change after mitigation"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if data, err := os.ReadFile(ltsPath); err != nil || !strings.HasPrefix(string(data), "digraph") {
		t.Errorf("LTS DOT not written correctly: %v", err)
	}
	if data, err := os.ReadFile(jsonPath); err != nil || !json.Valid(data) {
		t.Errorf("LTS JSON not written correctly: %v", err)
	}
}

func TestRunMarkdownAndDefaults(t *testing.T) {
	modelPath, _, _ := writeFixtures(t)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", modelPath, "-markdown", "-ordering", "data-driven"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "# Privacy risk analysis") {
		t.Error("markdown header missing")
	}
}

func TestRunErrors(t *testing.T) {
	modelPath, _, profilePath := writeFixtures(t)
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run(context.Background(), []string{"-model", "does-not-exist.json"}, &out); err == nil {
		t.Error("missing model file accepted")
	}
	if err := run(context.Background(), []string{"-model", modelPath, "-ordering", "chaotic"}, &out); err == nil {
		t.Error("unknown ordering accepted")
	}
	if err := run(context.Background(), []string{"-model", modelPath, "-profile", "missing.json"}, &out); err == nil {
		t.Error("missing profile accepted")
	}
	if err := run(context.Background(), []string{"-model", modelPath, "-profile", profilePath, "-mitigated", "missing.json"}, &out); err == nil {
		t.Error("missing mitigated model accepted")
	}
	for _, format := range [][]string{nil, {"-markdown"}} {
		args := append([]string{"-model", modelPath}, format...)
		if err := run(context.Background(), args, closedPipe{}); !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("%v: a failed write of the report returned %v, want the writer's error", format, err)
		}
	}
}

// closedPipe refuses every write.
type closedPipe struct{}

func (closedPipe) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
