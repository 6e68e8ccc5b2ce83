package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/dataflow"
)

func modelFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.json")
	if err := dataflow.Save(casestudy.Surgery(), path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunModes(t *testing.T) {
	path := modelFixture(t)
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{"dataflow", []string{"-model", path, "-mode", "dataflow"},
			[]string{"digraph", "receptionist", "anon_ehr"}},
		{"dataflow single service", []string{"-model", path, "-mode", "dataflow", "-service", casestudy.ServiceMedical},
			[]string{"digraph", "nurse"}},
		{"lts", []string{"-model", path, "-mode", "lts", "-verbose-states"},
			[]string{"digraph privacy_lts", "has("}},
		{"stats", []string{"-model", path, "-mode", "stats", "-ordering", "data-driven"},
			[]string{"states", "transitions"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), tt.args, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, want := range tt.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q", want)
				}
			}
		})
	}
}

func TestRunLTSJSON(t *testing.T) {
	path := modelFixture(t)
	var out strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-mode", "lts-json"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if _, ok := doc["states"]; !ok {
		t.Error("JSON missing states")
	}
}

func TestRunErrors(t *testing.T) {
	path := modelFixture(t)
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run(context.Background(), []string{"-model", "missing.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(context.Background(), []string{"-model", path, "-mode", "hologram"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(context.Background(), []string{"-model", path, "-mode", "dataflow", "-service", "ghost"}, &out); err == nil {
		t.Error("unknown service accepted")
	}
}

// TestRunModelCache: with -model-cache, the first run persists the compiled
// model and the second run (a fresh process in real use) loads it instead of
// regenerating — and emits byte-identical output either way.
func TestRunModelCache(t *testing.T) {
	path := modelFixture(t)
	cache := filepath.Join(t.TempDir(), "cache")
	outputs := make([]string, 2)
	for i := range outputs {
		var out strings.Builder
		if err := run(context.Background(), []string{"-model", path, "-mode", "lts-json", "-model-cache", cache}, &out); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Error("cached run emitted different output")
	}
	entries, err := filepath.Glob(filepath.Join(cache, "*.psm"))
	if err != nil || len(entries) != 1 {
		t.Errorf("cache directory holds %d artifacts (err %v), want 1", len(entries), err)
	}
	var plain strings.Builder
	if err := run(context.Background(), []string{"-model", path, "-mode", "lts-json"}, &plain); err != nil {
		t.Fatalf("uncached run: %v", err)
	}
	if plain.String() != outputs[0] {
		t.Error("cache-loaded output differs from the uncached run")
	}
}
