package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/runtime"
	"privascope/internal/service"
)

// frameTestEvents covers the codec's surface: interning (repeated strings),
// the empty string, zero and non-zero times, denied flags, no-field and
// multi-field events.
func frameTestEvents() []service.Event {
	return []service.Event{
		{
			Seq: 1, Time: time.Unix(0, 1712345678901234567).UTC(),
			Actor: "doctor", Action: core.ActionRead, Datastore: "ehr",
			Service: "medical", Purpose: "treatment",
			UserID: "patient-1", Fields: []string{"diagnosis", "treatment"},
		},
		{
			Seq: 2, Actor: "nurse", Action: core.ActionRead, Datastore: "ehr",
			UserID: "patient-1", Fields: []string{"diagnosis"}, Denied: true,
		},
		{
			Seq: -7, Actor: "receptionist", Action: core.ActionCollect,
			UserID: "patient-2", Fields: []string{"name"},
		},
		{
			Seq: 0, Actor: "doctor", Action: core.ActionDelete, Datastore: "ehr",
			UserID: "patient-1",
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	events := frameTestEvents()
	frame, err := EncodeFrame(events)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, events) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", decoded, events)
	}
}

func TestFrameEncodingIsCanonical(t *testing.T) {
	a, err := EncodeFrame(frameTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeFrame(frameTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding the same batch twice produced different bytes")
	}
	// A reused encoder (the Router path) must produce the same canonical
	// bytes as a fresh one.
	var enc frameEncoder
	if _, err := enc.appendFrame(nil, frameTestEvents()[:1]); err != nil {
		t.Fatal(err)
	}
	c, err := enc.appendFrame(nil, frameTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("a reused encoder produced different bytes than a fresh one")
	}
}

func TestFrameEncodeRejects(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Error("encoding an empty batch succeeded")
	}
	if _, err := EncodeFrame([]service.Event{{UserID: "u", Action: core.Action(99)}}); err == nil {
		t.Error("encoding an invalid action succeeded")
	}
}

// TestFrameFieldCountFitsItsUint16: the widest event the record can count
// round-trips, and one field more is refused instead of being written as
// "no fields" followed by stray refs.
func TestFrameFieldCountFitsItsUint16(t *testing.T) {
	event := func(fields int) []service.Event {
		ev := service.Event{Seq: 1, Actor: "doctor", Action: core.ActionRead, UserID: "patient-1",
			Fields: make([]string, fields)}
		for i := range ev.Fields {
			ev.Fields[i] = "f" // one interned string: the frame stays far below MaxFrameBytes
		}
		return []service.Event{ev}
	}
	widest := event(65535)
	frame, err := EncodeFrame(widest)
	if err != nil {
		t.Fatalf("encoding an event with 65535 fields: %v", err)
	}
	decoded, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decoding an event with 65535 fields: %v", err)
	}
	if !reflect.DeepEqual(decoded, widest) {
		t.Fatal("an event with 65535 fields did not round-trip")
	}
	if _, err := EncodeFrame(event(65536)); err == nil {
		t.Error("encoding an event with 65536 fields succeeded; its count does not fit the record's uint16")
	}
}

// corrupt returns a copy of frame with the byte at off overwritten.
func corrupt(frame []byte, off int, b byte) []byte {
	c := append([]byte(nil), frame...)
	c[off] = b
	return c
}

func TestFrameDecodeRejectsMalformed(t *testing.T) {
	frame, err := EncodeFrame(frameTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           nil,
		"short header":    frame[:8],
		"bad magic":       corrupt(frame, 0, 'X'),
		"truncated":       frame[:len(frame)-3],
		"trailing bytes":  append(append([]byte(nil), frame...), 0),
		"reserved set":    corrupt(frame, 6, 1),
		"zero events":     corrupt(frame, 12, 0),
		"bad action":      nil, // filled below
		"bad denied flag": nil,
		"spiked offset":   nil,
	}
	// Oversized declared length.
	over := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(over[8:], MaxFrameBytes+1)
	cases["oversized length"] = over
	// Find the first event's action byte: locate it by corrupting through
	// the decoder — cheaper to rebuild the frame with a known layout.
	small, err := EncodeFrame([]service.Event{{UserID: "u", Actor: "a", Action: core.ActionRead}})
	if err != nil {
		t.Fatal(err)
	}
	// Layout of small: header(16) scount=3 offsets(4×4) blob("ua") events.
	eventOff := frameHeaderSize + 4 + 4*4 + 2
	cases["bad action"] = corrupt(small, eventOff+36, 99)
	cases["bad denied flag"] = corrupt(small, eventOff+37, 2)
	spiked := append([]byte(nil), small...)
	binary.LittleEndian.PutUint32(spiked[frameHeaderSize+4+4:], 1<<30)
	cases["spiked offset"] = spiked

	for name, data := range cases {
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: decode succeeded", name)
		} else if !strings.Contains(err.Error(), "cluster:") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}

	versioned := corrupt(frame, 4, FrameVersion+1)
	if _, err := DecodeFrame(versioned); err == nil || !strings.Contains(err.Error(), "newer format version") {
		t.Errorf("future version: got %v, want ErrFrameVersion", err)
	}
}

func TestFrameReaderStreams(t *testing.T) {
	events := frameTestEvents()
	var body []byte
	var enc frameEncoder
	for i := range events {
		var err error
		body, err = enc.appendFrame(body, events[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(body))
	var got []service.Event
	for {
		batch, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("streamed decode mismatch:\n got %+v\nwant %+v", got, events)
	}

	// A stream cut mid-frame is an unexpected EOF, not a clean end.
	fr = NewFrameReader(bytes.NewReader(body[:len(body)-2]))
	for {
		_, err := fr.Read()
		if err == nil {
			continue
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated stream: got %v, want io.ErrUnexpectedEOF", err)
		}
		break
	}
}

// TestRetainedAlertDoesNotRetainItsFrame: decoded events share per-frame
// storage, so an alert that kept its event as decoded would keep the frame's
// string blob and field arena alive for as long as the alert log lives, and a
// node's memory would grow with the events it has processed rather than with
// the alerts it holds. 512 users walk the medical service one frame per step,
// one denied event riding in each; the frames go through the wire form and are
// dropped once ingested. What stays behind per logged alert is the alert.
func TestRetainedAlertDoesNotRetainItsFrame(t *testing.T) {
	const users = 512
	monitor, err := runtime.NewMonitor(surgeryModel(t), runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	scripts := make([][]service.Event, users)
	for u := range scripts {
		profile := casestudy.PatientProfile()
		profile.ID = fmt.Sprintf("patient-%04d", u)
		if err := monitor.RegisterUser(profile); err != nil {
			t.Fatal(err)
		}
		scripts[u] = casestudy.MedicalServiceEvents(profile.ID)
	}
	var body []byte
	var enc frameEncoder
	for step := range scripts[0] {
		batch := make([]service.Event, 0, users+1)
		for _, script := range scripts {
			batch = append(batch, script[step])
		}
		denied := scripts[step][0]
		denied.Denied = true
		if body, err = enc.appendFrame(body, append(batch, denied)); err != nil {
			t.Fatal(err)
		}
	}

	heap := func() int64 {
		var stats goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&stats)
		return int64(stats.HeapAlloc)
	}
	before := heap()
	fr := NewFrameReader(bytes.NewReader(body))
	for {
		batch, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		monitor.IngestBatch(batch)
	}
	grown := heap() - before
	alerts := monitor.Alerts()
	if len(alerts) != len(scripts[0]) {
		t.Fatalf("%d alerts logged, want one a frame (%d)", len(alerts), len(scripts[0]))
	}
	if per := grown / int64(len(alerts)); per > 2048 {
		t.Errorf("heap grew %d bytes per logged alert, want at most 2048: alerts keep their frames alive", per)
	}
	goruntime.KeepAlive(body)
}
