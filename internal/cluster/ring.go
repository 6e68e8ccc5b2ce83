package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// HashUserID is the user-ID hash shared by the whole fleet: inline 32-bit
// FNV-1a, used for both the ring's virtual points and the users placed among
// them, so every router and node computes the same owner for a user.
func HashUserID(userID string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= prime32
	}
	return h
}

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint32
	node int32 // index into nodes
}

// Ring is an immutable consistent-hash ring partitioning user IDs across
// named nodes. Each node is placed on the circle at Replicas virtual points
// (hash of "name#replica"), and a user belongs to the first virtual point at
// or after HashUserID(userID), wrapping around. The construction gives the
// two classic guarantees the cluster properties pin down: the assignment is a
// pure function of the node *set* (any permutation of the node list builds
// the same ring), and adding or removing one node only moves the ~K/N users
// whose arc the node owns — every other user keeps its owner.
type Ring struct {
	nodes    []string // sorted, unique
	replicas int
	points   []ringPoint // sorted by (hash, node)
}

// DefaultReplicas is the virtual-node count per node when NewRing is given
// zero. It does not even the arcs out on small fleets: the benchmark's
// cluster.ring_skew (largest node's share of users over the fair share) is
// 1.55 at two nodes.
const DefaultReplicas = 128

// NewRing builds a ring over the node names (order-insensitive; duplicates
// and empty names are rejected) with the given number of virtual points per
// node (0 selects DefaultReplicas).
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
	}
	r := &Ring{nodes: sorted, replicas: replicas}
	r.points = make([]ringPoint, 0, len(sorted)*replicas)
	for i, n := range sorted {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash: HashUserID(n + "#" + strconv.Itoa(v)),
				node: int32(i),
			})
		}
	}
	// Ties between virtual points of different nodes are broken by node
	// order, so the assignment stays deterministic and permutation-stable
	// even on hash collisions.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the ring's node names, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.nodes) }

// Replicas returns the virtual-node count per node.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the node owning the user ID.
func (r *Ring) Owner(userID string) string {
	return r.nodes[r.ownerIndex(HashUserID(userID))]
}

// ownerIndex finds the node of the first virtual point at or after h,
// wrapping past the top of the circle.
func (r *Ring) ownerIndex(h uint32) int32 {
	points := r.points
	i := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	if i == len(points) {
		i = 0
	}
	return points[i].node
}

// WithNode returns a new ring with the node added (same replica count).
func (r *Ring) WithNode(node string) (*Ring, error) {
	return NewRing(append(r.Nodes(), node), r.replicas)
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
	return NewRing(rest, r.replicas)
}
