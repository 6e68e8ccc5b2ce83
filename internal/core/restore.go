package core

import (
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// The accessors and the constructor in this file exist for one consumer: the
// persistent compiled-model store (internal/modelstore), which serialises a
// generated PrivacyLTS into a binary artifact and rebuilds it on load without
// re-running state-space exploration. They expose the per-state payloads the
// struct otherwise keeps private — the raw vector words and the datastore
// contents — and accept them back in the dense shape the struct holds them
// in, so a loaded model and a generated one are the same object built the
// same way.

// Words returns the raw bit words of the vector, in ascending bit order. The
// slice aliases the vector's storage and must be treated as read-only; a zero
// vector (no vocabulary) returns nil.
func (s StateVector) Words() []uint64 { return s.words }

// WordsPerVector returns the number of 64-bit words each state vector of this
// vocabulary occupies (at least 1).
func (v *Vocabulary) WordsPerVector() int { return v.wordsPerVec }

// StoreMap returns the per-datastore contents of the given state. The map and
// its field sets are the model's own bookkeeping, shared between states with
// equal contents, and must be treated as read-only; states without datastore
// contents return nil.
func (p *PrivacyLTS) StoreMap(id lts.StateID) map[string]schema.FieldSet {
	s, ok := p.dense(id)
	if !ok {
		return nil
	}
	return p.stores[s]
}

// RestorePrivacyLTS assembles a PrivacyLTS from previously serialised parts:
// the (caller-verified) data-flow model the artifact was generated from, the
// vocabulary, the restored graph, and the per-state payloads indexed by the
// graph's dense state index — vecWords holds vocab.WordsPerVector() words per
// state back to back, stores one (possibly shared, possibly nil) map per
// state. The arguments are retained, not copied: the model store hands in the
// slab and maps it decoded and keeps no other reference. The compiled analysis
// view is built lazily on first use, exactly as after generation.
func RestorePrivacyLTS(model *dataflow.Model, vocab *Vocabulary, graph *lts.LTS,
	warnings []string, vecWords []uint64, stores []map[string]schema.FieldSet) *PrivacyLTS {
	return &PrivacyLTS{
		Model:    model,
		Vocab:    vocab,
		Graph:    graph,
		Warnings: warnings,
		vecWords: vecWords,
		stores:   stores,
	}
}
