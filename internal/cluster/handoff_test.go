package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/risk"
	"privascope/internal/runtime"
)

func handoffSnaps() []runtime.UserSnapshot {
	p1 := casestudy.PatientProfile()
	p2 := risk.UserProfile{
		ID:                 "user-2",
		ConsentedServices:  []string{"svc-a", "svc-b"},
		Sensitivities:      map[string]float64{"zeta": 0.9, "alpha": 0.1},
		DefaultSensitivity: 0.5,
	}
	return []runtime.UserSnapshot{
		{Profile: p1, State: "s0", Applied: 7, Alerts: 2},
		{Profile: p2, State: "s21", Applied: 0, Alerts: 0},
	}
}

func TestHandoffRoundTrip(t *testing.T) {
	snaps := handoffSnaps()
	frame, err := EncodeHandoff(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoff(frame)
	if err != nil {
		t.Fatal(err)
	}
	// The codec normalizes empty slices/maps to nil; compare modulo that.
	want := snaps
	for i := range want {
		if len(want[i].Profile.ConsentedServices) == 0 {
			want[i].Profile.ConsentedServices = nil
		}
		if len(want[i].Profile.Sensitivities) == 0 {
			want[i].Profile.Sensitivities = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// Deterministic encoding: same input, identical bytes (the sensitivity
	// map must not leak iteration order).
	for trial := 0; trial < 8; trial++ {
		again, err := EncodeHandoff(handoffSnaps())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(frame) {
			t.Fatal("encoding the same snapshots twice produced different bytes")
		}
	}
}

func TestHandoffDecodeRejects(t *testing.T) {
	good, err := EncodeHandoff(handoffSnaps())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated header", good[:8]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"old version", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[4:], 0); return b })},
		{"reserved set", mutate(func(b []byte) []byte { b[6] = 1; return b })},
		{"length mismatch", mutate(func(b []byte) []byte { return append(b, 0) })},
		{"declared length short", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], uint32(len(b)-1))
			return b[:len(b)-1+1] // length field lies relative to the body
		})},
		{"zero count", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 0); return b })},
		{"huge count", mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1<<20); return b })},
		{"offset out of bounds", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[handoffHeaderSize+4:], 1<<30)
			return b
		})},
		{"nan default sensitivity", mutate(func(b []byte) []byte {
			// The first snapshot record starts right after the string section;
			// find it by re-encoding with a poisoned value instead of byte
			// surgery: NaN at defsens offset of record 0.
			snaps, err := DecodeHandoff(b)
			if err != nil {
				t.Fatal(err)
			}
			_ = snaps
			// Walk: header, scount, offsets, blob — reuse the decoder's
			// arithmetic via the string count field.
			p := handoffHeaderSize
			scount := int(binary.LittleEndian.Uint32(b[p:]))
			p += 4 + 4*(scount+1)
			end := binary.LittleEndian.Uint32(b[p-4:])
			p += int(end)
			binary.LittleEndian.PutUint64(b[p+24:], math.Float64bits(math.NaN()))
			return b
		})},
	}
	for _, tc := range cases {
		if _, err := DecodeHandoff(tc.data); err == nil {
			t.Errorf("%s: decoder accepted a corrupt frame", tc.name)
		}
	}
	if _, err := DecodeHandoff(mutate(func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], HandoffVersion+1)
		return b
	})); !errors.Is(err, ErrHandoffVersion) {
		t.Errorf("newer version: err = %v, want ErrHandoffVersion", err)
	}
	if _, err := EncodeHandoff(nil); err == nil {
		t.Error("encoder accepted an empty snapshot set")
	}
}

// TestHandoffEndpoint drives /handoff over HTTP: a valid frame imports, the
// node counts it, a frame for an unknown state is rejected with 422, and a
// duplicated delivery (retry after a lost response) is idempotent.
func TestHandoffEndpoint(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	profile := casestudy.PatientProfile()
	snap := runtime.UserSnapshot{Profile: profile, State: surgeryModel(t).InitialState()}
	frame, err := EncodeHandoff([]runtime.UserSnapshot{snap})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte, reason string) *httptest.ResponseRecorder { return postHandoff(node, body, reason) }
	if w := post(frame, ReasonFailover); w.Code != http.StatusOK {
		t.Fatalf("handoff returned %d: %s", w.Code, w.Body)
	}
	if w := post(frame, ReasonFailover); w.Code != http.StatusOK {
		t.Fatalf("duplicate handoff returned %d: %s", w.Code, w.Body)
	}
	s := node.Stats()
	if s.HandoffInUsers != 2 || s.FailoverInUsers != 2 {
		t.Fatalf("stats = %+v, want 2 handoff-in and 2 failover-in", s)
	}
	if got := node.Monitor().Users(); len(got) != 1 || got[0] != profile.ID {
		t.Fatalf("users after duplicate import = %v", got)
	}
	bad := snap
	bad.State = "no-such-state"
	badFrame, err := EncodeHandoff([]runtime.UserSnapshot{bad})
	if err != nil {
		t.Fatal(err)
	}
	if w := post(badFrame, ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown-state handoff returned %d, want 422", w.Code)
	}
	if w := post([]byte("not a frame"), ""); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage handoff returned %d, want 400", w.Code)
	}
}

// TestHandoffBufferFollowsTheBody: a request that declares MaxHandoffBytes
// but sends one user's frame costs the node about one chunk's buffer, not the
// declared length, so a sender that stalls after its header makes the node
// hold no more than it has sent; the short frame still imports.
func TestHandoffBufferFollowsTheBody(t *testing.T) {
	node := newTestNode(t, NodeConfig{})
	snap := runtime.UserSnapshot{Profile: casestudy.PatientProfile(), State: surgeryModel(t).InitialState()}
	frame, err := EncodeHandoff([]runtime.UserSnapshot{snap})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/handoff", bytes.NewReader(frame))
	req.ContentLength = MaxHandoffBytes
	rec := httptest.NewRecorder()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	node.Handler().ServeHTTP(rec, req)
	goruntime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("handoff returned %d: %s", rec.Code, rec.Body)
	}
	if allocated, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*handoffChunkBytes); allocated > bound {
		t.Errorf("a %d-byte frame declared as %d bytes allocated %d bytes, want at most %d", len(frame), MaxHandoffBytes, allocated, bound)
	}
}
