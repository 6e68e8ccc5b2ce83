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
// struct otherwise keeps private — the vector slab and the datastore-contents
// table — and accept them back in the dense shape the struct holds them in,
// so a loaded model and a generated one are the same object built the same
// way.

// WordsPerVector returns the number of 64-bit words each state vector of this
// vocabulary occupies (at least 1).
func (v *Vocabulary) WordsPerVector() int { return v.wordsPerVec }

// VectorWords returns the vector slab: the state at dense index s owns words
// [s*w, (s+1)*w) for w = Vocab.WordsPerVector(). It is the model's own and
// must be treated as read-only.
func (p *PrivacyLTS) VectorWords() []uint64 { return p.vecWords }

// StoreTable returns the datastore contents of every state as an index into a
// table of distinct contents: the state at dense index s holds sets[of[s]].
// Both slices and the maps are the model's own and must be treated as
// read-only.
func (p *PrivacyLTS) StoreTable() (of []int32, sets []map[string]schema.FieldSet) {
	return p.storeOf, p.storeSets
}

// RestorePrivacyLTS assembles a PrivacyLTS from previously serialised parts:
// the (caller-verified) data-flow model the artifact was generated from, the
// vocabulary, the restored graph, and the per-state payloads indexed by the
// graph's dense state index — vecWords holds vocab.WordsPerVector() words per
// state back to back, storeOf one index into storeSets per state. The
// arguments are retained, not copied: the model store hands in the slices and
// maps it decoded and keeps no other reference. The compiled analysis view is
// built lazily on first use, exactly as after generation.
func RestorePrivacyLTS(model *dataflow.Model, vocab *Vocabulary, graph *lts.LTS,
	warnings []string, vecWords []uint64, storeOf []int32, storeSets []map[string]schema.FieldSet) *PrivacyLTS {
	return &PrivacyLTS{
		Model:     model,
		Vocab:     vocab,
		Graph:     graph,
		Warnings:  warnings,
		vecWords:  vecWords,
		storeOf:   storeOf,
		storeSets: storeSets,
	}
}
