package dot_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"privascope/internal/core"
	"privascope/internal/dot"
	"privascope/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// golden compares got against testdata/<name>, rewriting the file under
// -update. DOT output is consumed by external tooling (graphviz), so the
// exact text — quoting, indentation, attribute order — is pinned.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("rewriting %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (re-record with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from its golden file (re-record with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenGraphRender pins the raw renderer: defaults, implicit
// nodes, and identifiers/attributes that need quoting.
func TestGoldenGraphRender(t *testing.T) {
	g := dot.NewGraph("sample graph")
	g.SetGraphAttr("rankdir", "LR")
	g.SetNodeDefault("fontname", "Helvetica")
	g.SetEdgeDefault("color", "grey40")
	g.AddNode("start", map[string]string{"shape": "oval", "label": "Start\nhere"})
	g.AddNode("store-1", map[string]string{"shape": "box", "label": `holds "data"`})
	g.AddEdge("start", "store-1", map[string]string{"label": "1. {name, age}"})
	g.AddEdge("store-1", "implicit", nil)
	golden(t, "graph.golden", g.Render())
}

// TestGoldenModelDOT pins the data-flow diagram of the fixed synthetic
// model, the Fig. 1 rendering every CLI export goes through.
func TestGoldenModelDOT(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 2, FieldsPerService: 2, ExtraActors: 1})
	golden(t, "synth_model.golden", m.DOT())
}

// TestGoldenPrivacyLTSDOT pins the privacy-LTS rendering (the paper's
// Fig. 4 style) of a one-service synthetic system, verbose states included.
func TestGoldenPrivacyLTSDOT(t *testing.T) {
	m := synth.Model(synth.ModelSpec{Services: 1, FieldsPerService: 2})
	p, err := core.Generate(m)
	if err != nil {
		t.Fatalf("generating model: %v", err)
	}
	golden(t, "synth_lts.golden", p.DOT(core.DOTOptions{VerboseStates: true}))
}
