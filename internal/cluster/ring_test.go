package cluster

import (
	"fmt"
	"testing"
)

func TestNewRingRejectsBadNodeLists(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("NewRing(nil) succeeded")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Fatal("NewRing with an empty name succeeded")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Fatal("NewRing with a duplicate name succeeded")
	}
}

func TestRingSingleNodeOwnsEverything(t *testing.T) {
	r, err := NewRing([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if owner := r.Owner(fmt.Sprintf("user-%d", i)); owner != "only" {
			t.Fatalf("user-%d owned by %q in a single-node ring", i, owner)
		}
	}
}

// fleetNames is node0..node{n-1}, the names a Local fleet uses.
func fleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	return names
}

// ringSkew is the largest node's share of the IDs over the fair share, the
// benchmark's cluster.ring_skew.
func ringSkew(r *Ring, ids int, format string) float64 {
	counts := make(map[string]int)
	largest := 0
	for i := 0; i < ids; i++ {
		owner := r.Owner(fmt.Sprintf(format, i))
		counts[owner]++
		if counts[owner] > largest {
			largest = counts[owner]
		}
	}
	return float64(largest) * float64(len(r.Nodes())) / float64(ids)
}

// TestRingSkew pins what a fair placement promises on the IDs that are hard
// to place: long runs of sequential IDs in the shapes the tests, the benchmark
// and the alloc gate generate. On each the largest node holds at most 1.1
// times its fair share.
func TestRingSkew(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		r, err := NewRing(fleetNames(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"member-user-%d", "s1-u%06d", "owned-user-%07d"} {
			if skew := ringSkew(r, 32768, format); skew > 1.1 {
				t.Errorf("%d nodes, IDs %q: skew %.3f, want <= 1.1", n, format, skew)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const users = 40000
	for i := 0; i < users; i++ {
		counts[r.Owner(fmt.Sprintf("user-%d", i))]++
	}
	for _, n := range nodes {
		// The fair share is 25 %; the band is the skew pin's 1.1 both ways.
		share := float64(counts[n]) / users
		if share < 0.225 || share > 0.275 {
			t.Errorf("node %q owns %.1f%% of users; the placement is unbalanced: %v",
				n, 100*share, counts)
		}
	}
}

func TestRingWithAndWithoutNode(t *testing.T) {
	r, err := NewRing([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := r.WithNode("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(grown.Nodes()); got != 3 {
		t.Fatalf("grown ring has %d nodes, want 3", got)
	}
	if _, err := r.WithNode("a"); err == nil {
		t.Fatal("adding a duplicate node succeeded")
	}
	shrunk, err := grown.WithoutNode("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(shrunk.Nodes()); got != 2 {
		t.Fatalf("shrunk ring has %d nodes, want 2", got)
	}
	if _, err := r.WithoutNode("zzz"); err == nil {
		t.Fatal("removing an absent node succeeded")
	}
	// Round-tripping through add+remove restores the exact assignment.
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("user-%d", i)
		if r.Owner(id) != shrunk.Owner(id) {
			t.Fatalf("user %q moved from %q to %q across an add+remove round trip",
				id, r.Owner(id), shrunk.Owner(id))
		}
	}
}
