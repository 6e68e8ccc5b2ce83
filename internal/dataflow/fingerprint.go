package dataflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"privascope/internal/accesscontrol"
)

// Fingerprint returns a collision-resistant canonical fingerprint of the
// model: the hex SHA-256 of the model's canonical JSON document together
// with a canonical, injective encoding of the attached access-control
// policy. Semantically different models never share a fingerprint, and two
// builds of the same model — same actors, datastores, schemas, services,
// flows (in declared order, which is semantically meaningful) and grants,
// each in the same declaration order — always do. An RBAC-written policy is
// fingerprinted as the ACL it expands to.
// The converse direction is deliberately conservative: declaration order of
// grants is part of the fingerprint even though it only affects explanation
// text, so two policies listing the same grants in different orders hash
// differently (a harmless extra cache entry, never a wrong share).
//
// The fingerprint is what lets a long-lived cache (privascope.Engine) key
// generated privacy models by value rather than by pointer, so two loads of
// the same model document share one generation.
//
// The only error is a nil model.
func Fingerprint(m *Model) (string, error) {
	if m == nil {
		return "", fmt.Errorf("dataflow: cannot fingerprint nil model")
	}
	data, err := Marshal(m)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(data)
	// Marshal already encodes the grants, but the policy is re-encoded here
	// so that a nil policy is distinguishable from an empty ACL.
	writePolicyCanonical(h, m.Policy)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writePolicyCanonical writes an injective encoding of the policy: every
// variable-length string is length-prefixed, and a nil policy carries its
// own tag, so no two different policies render identically.
func writePolicyCanonical(w io.Writer, p accesscontrol.Policy) {
	if p == nil {
		io.WriteString(w, "|policy:none")
		return
	}
	io.WriteString(w, "|policy:acl")
	for _, g := range accesscontrol.ACLOf(p).Grants() {
		writeGrantCanonical(w, g)
	}
}

// writeGrantCanonical writes one grant with length-prefixed fields.
func writeGrantCanonical(w io.Writer, g accesscontrol.Grant) {
	io.WriteString(w, "|grant")
	writeString(w, g.Actor)
	writeString(w, g.Datastore)
	for _, f := range g.Fields {
		writeString(w, f)
	}
	io.WriteString(w, ";perms")
	for _, p := range g.Permissions {
		io.WriteString(w, ":")
		io.WriteString(w, strconv.Itoa(int(p)))
	}
	writeString(w, g.Reason)
}

// writeString writes one length-prefixed string, so concatenated fields
// cannot alias across boundaries.
func writeString(w io.Writer, s string) {
	io.WriteString(w, ";")
	io.WriteString(w, strconv.Itoa(len(s)))
	io.WriteString(w, ":")
	io.WriteString(w, s)
}
