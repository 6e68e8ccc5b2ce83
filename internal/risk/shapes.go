package risk

import (
	"hash/maphash"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
)

// Shapes is the profile registry, a hash-consing table (Filliâtre and
// Conchon, "Type-Safe Modular Hash-Consing"). It stores each distinct profile
// record once — the profile as written, less its ID — and names it and its
// shape by dense ids. A shape is what an assessment depends on: the multiset
// of consented services, the sensitivities and the default, floats compared by
// their bits. A hash blind to service and map order picks a bucket and an
// exact comparison confirms every candidate, so a collision never merges two
// shapes. A profile Validate rejects is never stored. It is safe for
// concurrent use.
type Shapes struct {
	mu      sync.Mutex
	buckets map[uint64]int32 // hash -> the newest record with it
	records []shapeRecord
	shapes  int32
	last    int32 // the record Intern returned last
}

type shapeRecord struct {
	profile     UserProfile
	shape, next int32 // next: the previous record of the bucket, or -1
}

// hashMask is applied to every hash; tests zero it to force collisions.
var hashMask = ^uint64(0)

var hashSeed = maphash.MakeSeed()

// Intern returns the ids of the profile's record and shape. The first time
// its record is seen the profile is validated and copied; otherwise Intern
// allocates nothing.
func (s *Shapes) Intern(p UserProfile) (record, shape int32, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A handoff chunk's users often come in runs of one profile: trying the
	// last record first spares them the hash, and costs others one comparison.
	if len(s.records) > 0 && SameRecord(&p, &s.records[s.last].profile) {
		return s.last, s.records[s.last].shape, nil
	}
	h := shapeHash(&p) & hashMask
	head, ok := s.buckets[h]
	if !ok {
		head = -1
	}
	shape = -1
	for r := head; r >= 0; r = s.records[r].next {
		if q := &s.records[r]; SameRecord(&p, &q.profile) {
			s.last = r
			return r, q.shape, nil
		} else if shape < 0 && sameShape(&p, &q.profile) {
			shape = q.shape
		}
	}
	if err := p.Validate(); err != nil {
		return -1, -1, err
	}
	if shape < 0 {
		shape, s.shapes = s.shapes, s.shapes+1
	}
	if s.buckets == nil {
		s.buckets = make(map[uint64]int32)
	}
	record = int32(len(s.records))
	own := UserProfile{ConsentedServices: slices.Clone(p.ConsentedServices),
		Sensitivities: maps.Clone(p.Sensitivities), DefaultSensitivity: p.DefaultSensitivity}
	s.records = append(s.records, shapeRecord{profile: own, shape: shape, next: head})
	s.buckets[h], s.last = record, record
	return record, shape, nil
}

// Profile returns the interned record, its ID empty. Its slice and map are
// the registry's and must be treated as read-only.
func (s *Shapes) Profile(record int32) UserProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records[record].profile
}

// shapeHash sums per-service and per-sensitivity hashes, so neither order
// reaches it.
func shapeHash(p *UserProfile) uint64 {
	h := mix64(math.Float64bits(p.DefaultSensitivity)) + uint64(len(p.ConsentedServices))<<32 + uint64(len(p.Sensitivities))
	for _, svc := range p.ConsentedServices {
		h += mix64(maphash.String(hashSeed, svc))
	}
	for f, v := range p.Sensitivities {
		h += mix64(maphash.String(hashSeed, f) ^ mix64(math.Float64bits(v)+1))
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finaliser.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// SameRecord reports whether a and b are one shape written alike — service
// order, and nil against empty, included — whatever their IDs. Profiles that
// hold the same services slice and sensitivities map are decided without
// reading either: the users of one record share its storage.
func SameRecord(a, b *UserProfile) bool {
	if x, y := a.ConsentedServices, b.ConsentedServices; len(x) == len(y) && (x == nil) == (y == nil) &&
		(len(x) == 0 || &x[0] == &y[0]) &&
		reflect.ValueOf(a.Sensitivities).Pointer() == reflect.ValueOf(b.Sensitivities).Pointer() {
		return math.Float64bits(a.DefaultSensitivity) == math.Float64bits(b.DefaultSensitivity)
	}
	return (a.ConsentedServices == nil) == (b.ConsentedServices == nil) &&
		(a.Sensitivities == nil) == (b.Sensitivities == nil) &&
		slices.Equal(a.ConsentedServices, b.ConsentedServices) && sameShape(a, b)
}

// sameShape reports whether a and b have one shape.
func sameShape(a, b *UserProfile) bool {
	if math.Float64bits(a.DefaultSensitivity) != math.Float64bits(b.DefaultSensitivity) ||
		len(a.ConsentedServices) != len(b.ConsentedServices) || len(a.Sensitivities) != len(b.Sensitivities) {
		return false
	}
	for f, v := range a.Sensitivities {
		if w, ok := b.Sensitivities[f]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	if slices.Equal(a.ConsentedServices, b.ConsentedServices) {
		return true
	}
	var bufA, bufB [16]string // sorted copies stay on the stack while profiles are small
	x, y := append(bufA[:0], a.ConsentedServices...), append(bufB[:0], b.ConsentedServices...)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}
