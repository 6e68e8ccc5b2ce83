package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/lts"
	"privascope/internal/risk"
	"privascope/internal/runtime"
)

// pinnedHandoffSnaps is a membership change's worth of users: 4,096
// snapshots of three profiles, the second listed with its services in two
// orders, so the frame holds four distinct profile records.
func pinnedHandoffSnaps() []runtime.UserSnapshot {
	patient := casestudy.PatientProfile()
	ab := risk.UserProfile{
		ConsentedServices:  []string{"svc-a", "svc-b"},
		Sensitivities:      map[string]float64{"zeta": 0.9, "alpha": 0.1, "mid": 0.5},
		DefaultSensitivity: 0.5,
	}
	ba := ab
	ba.ConsentedServices = []string{"svc-b", "svc-a"}
	bare := risk.UserProfile{DefaultSensitivity: 0.25}
	profiles := []risk.UserProfile{patient, ab, ba, bare}
	snaps := make([]runtime.UserSnapshot, 4096)
	for i := range snaps {
		p := profiles[i*7%len(profiles)]
		p.ID = fmt.Sprintf("user-%04d", i)
		snaps[i] = runtime.UserSnapshot{Profile: p, State: lts.StateID(fmt.Sprintf("s%d", i%13)),
			Applied: int64(i * 3), Alerts: int64(i % 5)}
	}
	return snaps
}

// TestHandoffBytesPinned pins PSHO v1 across commits: the SHA-256 of one
// encoded frame of pinnedHandoffSnaps. An encoder change that moves one byte
// fails here even when the result still round-trips.
func TestHandoffBytesPinned(t *testing.T) {
	const want = "7ee342cbec3248ae54c1818614ee687b6cb11e26aa3fd4fa00ef1b311ca0b67d"
	frame, err := EncodeHandoff(pinnedHandoffSnaps())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("PSHO frame digest %s, want %s (%d bytes)", got, want, len(frame))
	}
}

// TestDecodeHandoffSharesRepeatedProfiles: every snapshot that repeats a
// profile record shares that record's slice and map, so decoding a frame
// allocates one map and one slice per distinct record, not per user.
func TestDecodeHandoffSharesRepeatedProfiles(t *testing.T) {
	snaps := pinnedHandoffSnaps()
	frame, err := EncodeHandoff(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoff(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snaps) {
		t.Fatal("the frame does not decode to the snapshots it encodes")
	}
	maps, slices := map[uintptr]bool{}, map[*string]bool{}
	for i := range got {
		p := &got[i].Profile
		if p.Sensitivities != nil {
			maps[reflect.ValueOf(p.Sensitivities).Pointer()] = true
		}
		if len(p.ConsentedServices) > 0 {
			slices[&p.ConsentedServices[0]] = true
		}
	}
	// The patient, and the two orders of the second profile: three records
	// with services and sensitivities.
	if len(maps) != 3 || len(slices) != 3 {
		t.Errorf("decoded %d distinct maps and %d distinct slices, want 3 of each", len(maps), len(slices))
	}
	// A frame costs its string table, the blob the table's strings share, the
	// snapshot slice and the record memo; a distinct record its slice, its map
	// (a header and one group) and its share of the memo's growth. Nothing is
	// per user.
	const perFrame, perRecord, records = 6, 4, 4
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeHandoff(frame); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(perFrame + perRecord*records); allocs > limit {
		t.Errorf("decoding %d snapshots of %d records allocated %.0f objects, want at most %.0f", len(snaps), records, allocs, limit)
	}
}
