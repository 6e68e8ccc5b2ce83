package lts

import (
	"fmt"
	"testing"
)

// buildLayered builds a layered LTS with the given number of layers and
// width: every node of one layer has an edge to every node of the next.
func buildLayered(layers, width int) *LTS {
	g := newGraph().init("s0")
	prev := []StateID{"s0"}
	id := 1
	for layer := 0; layer < layers; layer++ {
		var next []StateID
		for w := 0; w < width; w++ {
			node := StateID(fmt.Sprintf("s%d", id))
			id++
			next = append(next, node)
		}
		for _, from := range prev {
			for i, to := range next {
				g.edge(from, to, StringLabel(fmt.Sprintf("a%d", i)))
			}
		}
		prev = next
	}
	return g.build()
}

func BenchmarkReachable(b *testing.B) {
	l := buildLayered(20, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Reachable(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExistsWitness(b *testing.B) {
	l := buildLayered(20, 10)
	target := StateID(fmt.Sprintf("s%d", l.StateCount()-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, _, err := l.Exists(func(id StateID) bool { return id == target })
		if err != nil || !found {
			b.Fatal("witness search failed")
		}
	}
}

func BenchmarkDOTRender(b *testing.B) {
	l := buildLayered(10, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := l.DOT(DOTOptions{}); len(out) == 0 {
			b.Fatal("empty DOT")
		}
	}
}
