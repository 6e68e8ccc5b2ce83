package cluster

import (
	"fmt"
	"sort"
)

// Ring is an immutable placement of user IDs on named nodes by rendezvous
// (highest-random-weight) hashing: every node scores the user, and the highest
// score owns it. There is no table; the placement is this one function of the
// node *set* and the ID, which is what gives it the three properties the
// cluster's tests pin down. Any permutation of the node list builds the same
// ring. Each node wins a user with equal probability, so the largest node
// stays within a few percent of the fair share even on sequential IDs. And a
// node's score for a user does not depend on who else is in the ring, so a
// join moves exactly the users the joiner now outscores everyone on — about
// K/(N+1), all of them to the joiner — and a leave moves only the leaver's.
// Owner is O(N), a few nanoseconds a node, which suits the fleets this
// repository starts (at most eight nodes); dozens of nodes would want a table.
type Ring struct {
	nodes []string // sorted, unique
	seeds []uint64 // seeds[i] is node i's contribution to every score
}

// hash64 is 64-bit FNV-1a.
func hash64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is the splitmix64 finaliser. FNV-1a alone leaves IDs that differ in a
// short sequential suffix close together; a full-avalanche bijection over
// hash ^ seed makes each node's score of a user independent of the others'.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the node names (order-insensitive; duplicates
// and empty names are rejected).
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	seeds := make([]uint64, len(sorted))
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
		seeds[i] = mix(hash64(n))
	}
	return &Ring{nodes: sorted, seeds: seeds}, nil
}

// Nodes returns the ring's node names, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning the user ID: the one scoring it highest. Equal
// scores go to the lower name, so the owner stays a function of the node set.
func (r *Ring) Owner(userID string) string { return r.nodes[r.ownerIndex(userID)] }

// ownerIndex is Owner's node as an index into the sorted node list.
func (r *Ring) ownerIndex(userID string) int {
	h := hash64(userID)
	best, bestScore := 0, mix(h^r.seeds[0])
	for i := 1; i < len(r.seeds); i++ {
		if score := mix(h ^ r.seeds[i]); score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// WithNode returns a new ring with the node added.
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewRing(append(r.Nodes(), node))
}

// WithoutNode returns a new ring with the node removed.
func (r *Ring) WithoutNode(node string) (*Ring, error) {
	var rest []string
	for _, n := range r.nodes {
		if n != node {
			rest = append(rest, n)
		}
	}
	if len(rest) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: node %q is not in the ring", node)
	}
	return NewRing(rest)
}
