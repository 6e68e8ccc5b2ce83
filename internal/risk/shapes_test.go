package risk_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/proptest"
	"privascope/internal/proptest/scenario"
	"privascope/internal/risk"
)

// recordKey renders what a Shapes record is: the fingerprint, plus the
// service order and which of the slice and the map are nil.
func recordKey(p risk.UserProfile) string {
	key := fmt.Sprintf("%t|%t|%s", p.ConsentedServices == nil, p.Sensitivities == nil, p.Fingerprint())
	for _, svc := range p.ConsentedServices {
		key += "|" + strconv.Quote(svc)
	}
	return key
}

// checkShapeIDs interns the profiles into one fresh registry and checks it
// against the reference renderings: a profile is refused exactly when
// Validate refuses it; of the others, two share a shape id exactly when their
// fingerprints are equal, share a record exactly when their record keys are
// equal, and a record reads back as the profile, less its ID.
func checkShapeIDs(profiles []risk.UserProfile) error {
	var reg risk.Shapes
	records, shapes := make([]int32, len(profiles)), make([]int32, len(profiles))
	fps, keys := make([]string, len(profiles)), make([]string, len(profiles))
	var valid []risk.UserProfile
	for _, p := range profiles {
		record, shape, err := reg.Intern(p)
		if (err != nil) != (p.Validate() != nil) {
			return fmt.Errorf("interning %+v: error %v, Validate says %v", p, err, p.Validate())
		}
		if err == nil {
			i := len(valid)
			records[i], shapes[i], fps[i], keys[i] = record, shape, p.Fingerprint(), recordKey(p)
			valid = append(valid, p)
		}
	}
	for i, p := range valid {
		for j := range valid[:i] {
			if sameShape, sameFP := shapes[i] == shapes[j], fps[i] == fps[j]; sameShape != sameFP {
				return fmt.Errorf("profiles %d and %d: same shape id %t, same fingerprint %t:\n%q\n%q",
					j, i, sameShape, sameFP, fps[j], fps[i])
			}
			if sameRecord, sameKey := records[i] == records[j], keys[i] == keys[j]; sameRecord != sameKey {
				return fmt.Errorf("profiles %d and %d: same record %t, same record key %t", j, i, sameRecord, sameKey)
			}
		}
		got, want := reg.Profile(records[i]), p
		want.ID = ""
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("profile %d reads back as %+v, want %+v", i, got, want)
		}
	}
	return nil
}

// editedProfiles returns p and copies of it edited the ways a shape key can
// get wrong: services permuted, one sensitivity moved by one ULP, +0 against
// -0, a field added and a field dropped, a service added and one replaced.
func editedProfiles(p risk.UserProfile, rng *rand.Rand) []risk.UserProfile {
	clone := func() risk.UserProfile {
		q := p
		q.ID += "-edit"
		q.ConsentedServices = slices.Clone(p.ConsentedServices)
		q.Sensitivities = maps.Clone(p.Sensitivities)
		if q.Sensitivities == nil {
			q.Sensitivities = map[string]float64{}
		}
		return q
	}
	fields := slices.Sorted(maps.Keys(p.Sensitivities))
	out := []risk.UserProfile{p}

	permuted := clone()
	rng.Shuffle(len(permuted.ConsentedServices), func(i, j int) {
		permuted.ConsentedServices[i], permuted.ConsentedServices[j] = permuted.ConsentedServices[j], permuted.ConsentedServices[i]
	})
	out = append(out, permuted)

	ulp := clone()
	if len(fields) > 0 {
		f := fields[rng.Intn(len(fields))]
		ulp.Sensitivities[f] = math.Nextafter(ulp.Sensitivities[f], 2)
	} else {
		ulp.DefaultSensitivity = math.Nextafter(ulp.DefaultSensitivity, 2)
	}
	out = append(out, ulp)

	positive, negative := clone(), clone()
	positive.Sensitivities["zero"], negative.Sensitivities["zero"] = 0, math.Copysign(0, -1)
	negativeDefault := clone()
	negativeDefault.DefaultSensitivity = math.Copysign(0, -1)
	zeroDefault := clone()
	zeroDefault.DefaultSensitivity = 0
	out = append(out, positive, negative, negativeDefault, zeroDefault)

	added, consented := clone(), clone()
	added.Sensitivities["added"] = 0.5
	consented.ConsentedServices = append(consented.ConsentedServices, "consented")
	out = append(out, added, consented)
	if len(p.ConsentedServices) > 0 {
		swapped := clone()
		swapped.ConsentedServices[rng.Intn(len(swapped.ConsentedServices))] = "swapped"
		out = append(out, swapped)
	}
	if len(fields) > 0 {
		dropped := clone()
		delete(dropped.Sensitivities, fields[rng.Intn(len(fields))])
		out = append(out, dropped)
	}
	return out
}

// TestPropShapeIDsMatchFingerprints: over drawn populations and edited copies
// of their profiles, Shapes gives two profiles one shape id exactly when their
// reference fingerprints are equal — with its real hash and with every
// profile in one bucket.
func TestPropShapeIDsMatchFingerprints(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		var profiles []risk.UserProfile
		for _, p := range scenario.Draw(seed).Profiles {
			profiles = append(profiles, editedProfiles(p, rng)...)
		}
		if err := checkShapeIDs(profiles); err != nil {
			return err
		}
		defer risk.CollideShapes()()
		return checkShapeIDs(profiles)
	})
}

// TestShapesCollisionsNeverMerge forces every hash into one bucket: the
// exact comparison alone then tells shapes apart, and no two are merged.
func TestShapesCollisionsNeverMerge(t *testing.T) {
	defer risk.CollideShapes()()
	var profiles []risk.UserProfile
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		p := casestudy.PatientProfile()
		p.ConsentedServices = append(p.ConsentedServices, casestudy.ServiceResearch)
		p.DefaultSensitivity = float64(i) / 4
		profiles = append(profiles, editedProfiles(p, rng)...)
	}
	if err := checkShapeIDs(profiles); err != nil {
		t.Fatal(err)
	}
	var reg risk.Shapes
	seen := map[int32]string{}
	for _, p := range profiles {
		_, shape, err := reg.Intern(p)
		if err != nil {
			t.Fatal(err)
		}
		if fp, ok := seen[shape]; ok && fp != p.Fingerprint() {
			t.Fatalf("shape %d holds two fingerprints:\n%q\n%q", shape, fp, p.Fingerprint())
		}
		seen[shape] = p.Fingerprint()
	}
	fingerprints := map[string]bool{}
	for _, p := range profiles {
		fingerprints[p.Fingerprint()] = true
	}
	if len(seen) != len(fingerprints) || len(seen) < 2*4 {
		t.Fatalf("%d shapes for %d fingerprints", len(seen), len(fingerprints))
	}
}

// TestShapesInternAllocatesNothingWhenSeen: interning a profile whose record
// the registry holds costs no heap object, and the registry's copy shares no
// storage with the caller's profile.
func TestShapesInternAllocatesNothingWhenSeen(t *testing.T) {
	var reg risk.Shapes
	p := casestudy.PatientProfile()
	record, _, err := reg.Intern(p)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = reg.Intern(p) }); allocs != 0 {
		t.Errorf("interning a seen profile allocated %.0f objects", allocs)
	}
	p.Sensitivities[casestudy.FieldDiagnosis] = 0
	p.ConsentedServices[0] = "edited"
	want := casestudy.PatientProfile()
	want.ID = ""
	if got := reg.Profile(record); !reflect.DeepEqual(got, want) {
		t.Errorf("editing the caller's profile changed the registry's copy to %+v", got)
	}
}

// FuzzProfileShape interns fuzzer-written profiles over a small vocabulary —
// names that concatenate alike, +0, -0, values one ULP apart, NaN (refused,
// as Validate refuses it), nil and empty slices and maps — and checks the
// registry against the reference fingerprints, with its own hash and with
// every profile in one bucket.
func FuzzProfileShape(f *testing.F) {
	names := []string{"a", "b", "ab", "", "a:b"}
	values := []float64{0, math.Copysign(0, -1), 0.3, math.Nextafter(0.3, 1), 1, math.NaN()}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var profiles []risk.UserProfile
		for len(data) > 0 && len(profiles) < 8 {
			flags := next()
			p := risk.UserProfile{ID: strconv.Itoa(len(profiles)), DefaultSensitivity: values[next()%len(values)]}
			if flags&1 != 0 {
				p.ConsentedServices = []string{}
			}
			for n := flags >> 2 & 3; n > 0; n-- {
				p.ConsentedServices = append(p.ConsentedServices, names[next()%len(names)])
			}
			if flags&2 != 0 {
				p.Sensitivities = map[string]float64{}
			}
			for n := flags >> 4 & 3; n > 0; n-- {
				if p.Sensitivities == nil {
					p.Sensitivities = map[string]float64{}
				}
				p.Sensitivities[names[next()%len(names)]] = values[next()%len(values)]
			}
			profiles = append(profiles, p)
		}
		if err := checkShapeIDs(profiles); err != nil {
			t.Fatal(err)
		}
		defer risk.CollideShapes()()
		if err := checkShapeIDs(profiles); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShapesRefuseInvalidProfiles: a profile Validate refuses is reported and
// never stored, so the next profile gets the first record and shape.
func TestShapesRefuseInvalidProfiles(t *testing.T) {
	var reg risk.Shapes
	bad := casestudy.PatientProfile()
	bad.Sensitivities[casestudy.FieldDiagnosis] = 2
	if _, _, err := reg.Intern(bad); err == nil {
		t.Fatal("interned a sensitivity of 2")
	}
	if record, shape, err := reg.Intern(casestudy.PatientProfile()); err != nil || record != 0 || shape != 0 {
		t.Fatalf("after a refused profile, the first valid one got record %d, shape %d, error %v", record, shape, err)
	}
}

// sharedStorageProfiles returns profiles that share a services backing array
// or a sensitivities map in every way SameRecord's shared-storage test could
// wrongly accept, beside equal profiles in storage of their own.
func sharedStorageProfiles() []risk.UserProfile {
	services := []string{casestudy.ServiceMedical, casestudy.ServiceResearch, casestudy.ServiceMedical}
	base := casestudy.PatientProfile()
	base.ConsentedServices = services[:2]
	with := func(services []string, sens map[string]float64, def float64) risk.UserProfile {
		return risk.UserProfile{ConsentedServices: services, Sensitivities: sens, DefaultSensitivity: def}
	}
	copied := with(slices.Clone(base.ConsentedServices), maps.Clone(base.Sensitivities), base.DefaultSensitivity)
	return []risk.UserProfile{
		base,
		with(services[:2], base.Sensitivities, 0.7),                      // the map shared, another default
		with(services[:1], base.Sensitivities, base.DefaultSensitivity),  // the array shared, shorter
		with(services[1:3], base.Sensitivities, base.DefaultSensitivity), // the array shared, reordered
		with(services[:0], base.Sensitivities, base.DefaultSensitivity),  // empty against nil
		with(nil, base.Sensitivities, base.DefaultSensitivity),
		with(services[:2], map[string]float64{}, base.DefaultSensitivity), // empty map against nil
		with(services[:2], nil, base.DefaultSensitivity),
		with(services[:2], copied.Sensitivities, base.DefaultSensitivity),           // equal, the map copied
		with(copied.ConsentedServices, base.Sensitivities, base.DefaultSensitivity), // equal, the slice copied
		copied,
		base,
	}
}

// TestSameRecordSharedStorage: profiles sharing storage are one record only
// when the record keys say so — a shared map with another default, a shared
// array at another length or order, nil against empty are all apart — and
// equal profiles in storage of their own still intern to one record.
func TestSameRecordSharedStorage(t *testing.T) {
	profiles := sharedStorageProfiles()
	for i := range profiles {
		for j := range profiles {
			a, b := &profiles[i], &profiles[j]
			if got, want := risk.SameRecord(a, b), recordKey(*a) == recordKey(*b); got != want {
				t.Errorf("SameRecord(profile %d, profile %d) = %t, want %t", i, j, got, want)
			}
		}
	}
	if err := checkShapeIDs(profiles); err != nil {
		t.Fatal(err)
	}
}
