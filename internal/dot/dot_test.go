package dot

import (
	"strings"
	"testing"
)

func TestRenderEmptyGraph(t *testing.T) {
	g := NewGraph("empty")
	got := g.Render()
	want := "digraph empty {\n}\n"
	if got != want {
		t.Fatalf("Render() = %q, want %q", got, want)
	}
}

func TestRenderNodesAndEdges(t *testing.T) {
	g := NewGraph("flow")
	g.SetGraphAttr("rankdir", "LR")
	g.AddNode("patient", map[string]string{"shape": "oval", "label": "Patient"})
	g.AddNode("ehr", map[string]string{"shape": "box"})
	g.AddEdge("patient", "ehr", map[string]string{"label": "name, dob"})

	out := g.Render()
	for _, want := range []string{
		`rankdir="LR";`,
		`patient [label="Patient", shape="oval"];`,
		`ehr [shape="box"];`,
		`patient -> ehr [label="name, dob"];`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q in:\n%s", want, out)
		}
	}
}

func TestAddEdgeImplicitNodes(t *testing.T) {
	g := NewGraph("g")
	g.AddEdge("a", "b", nil)
	if !g.HasNode("a") || !g.HasNode("b") {
		t.Fatalf("AddEdge should create missing nodes; has(a)=%v has(b)=%v", g.HasNode("a"), g.HasNode("b"))
	}
	if g.NodeCount() != 2 {
		t.Fatalf("NodeCount() = %d, want 2", g.NodeCount())
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount() = %d, want 1", g.EdgeCount())
	}
}

func TestAddNodeMergesAttributes(t *testing.T) {
	g := NewGraph("g")
	g.AddNode("n", map[string]string{"shape": "box"})
	g.AddNode("n", map[string]string{"label": "Node"})
	out := g.Render()
	if !strings.Contains(out, `n [label="Node", shape="box"];`) {
		t.Fatalf("expected merged attributes, got:\n%s", out)
	}
	if g.NodeCount() != 1 {
		t.Fatalf("NodeCount() = %d, want 1", g.NodeCount())
	}
}

func TestQuoteEscaping(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"plain", "abc", `"abc"`},
		{"quotes", `say "hi"`, `"say \"hi\""`},
		{"newline", "a\nb", `"a\nb"`},
		{"backslash", `a\b`, `"a\\b"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := quote(tt.in); got != tt.want {
				t.Errorf("quote(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestQuoteID(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"simple", "simple"},
		{"with_underscore", "with_underscore"},
		{"s1", "s1"},
		{"1leading", `"1leading"`},
		{"has space", `"has space"`},
		{"", `""`},
	}
	for _, tt := range tests {
		if got := quoteID(tt.in); got != tt.want {
			t.Errorf("quoteID(%q) = %s, want %s", tt.in, got, tt.want)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	build := func() string {
		g := NewGraph("d")
		g.AddNode("x", map[string]string{"b": "2", "a": "1", "c": "3"})
		g.AddEdge("x", "y", map[string]string{"z": "9", "a": "0"})
		return g.Render()
	}
	first := build()
	for i := 0; i < 20; i++ {
		if got := build(); got != first {
			t.Fatalf("Render() not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
}
