package service_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/schema"
	"privascope/internal/service"
)

func ehrDatastore(t testing.TB, log *service.Log) *service.Datastore {
	t.Helper()
	def := schema.Datastore{ID: "ehr", Name: "EHR", Schema: schema.MustSchema("ehr",
		schema.Field{Name: "name", Category: schema.CategoryIdentifier},
		schema.Field{Name: "diagnosis", Category: schema.CategorySensitive},
		schema.Field{Name: "treatment", Category: schema.CategorySensitive},
	)}
	policy := accesscontrol.MustACL(
		accesscontrol.Grant{Actor: "doctor", Datastore: "ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite, accesscontrol.PermissionDelete}},
		accesscontrol.Grant{Actor: "nurse", Datastore: "ehr", Fields: []string{"name", "treatment"},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}},
	)
	store, err := service.NewDatastore(def, policy, log)
	if err != nil {
		t.Fatalf("NewDatastore: %v", err)
	}
	return store
}

// recorder is a sink that keeps every event the log hands it.
type recorder struct {
	mu     sync.Mutex
	events []service.Event
}

func (r *recorder) sink(ev service.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) received() []service.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]service.Event(nil), r.events...)
}

func TestLogAppendCallsSink(t *testing.T) {
	var rec recorder
	log := service.NewLog(rec.sink)
	base := time.Date(2026, 6, 15, 10, 0, 0, 0, time.UTC)
	log.SetClock(func() time.Time { return base })

	fields := []string{"name"}
	ev := log.Append(service.Event{Actor: "doctor", Action: core.ActionCreate, UserID: "alice", Fields: fields})
	if ev.Seq != 1 || !ev.Time.Equal(base) {
		t.Errorf("appended event = %+v", ev)
	}
	// The sink has the event by the time Append returns, as a copy: the
	// caller's slice is not shared.
	fields[0] = "changed"
	log.Append(service.Event{Actor: "nurse", Action: core.ActionRead, UserID: "alice", Fields: []string{"treatment"}})
	got := rec.received()
	if len(got) != 2 || got[0].Actor != "doctor" || got[0].Fields[0] != "name" || got[1].Actor != "nurse" || got[1].Seq != 2 {
		t.Errorf("sink received %+v", got)
	}
}

// TestLogHandsEveryEventToTheSink: 10^5 back-to-back appends all reach the
// sink, numbered 1…10^5 in order.
func TestLogHandsEveryEventToTheSink(t *testing.T) {
	const n = 100_000
	next := int64(1)
	log := service.NewLog(func(ev service.Event) {
		if ev.Seq != next {
			t.Fatalf("sink received Seq %d, want %d", ev.Seq, next)
		}
		next++
	})
	for range n {
		log.Append(service.Event{Actor: "doctor", Action: core.ActionRead, UserID: "alice", Fields: []string{"name"}})
	}
	if next-1 != n {
		t.Fatalf("sink received %d events, want %d", next-1, n)
	}
}

// TestLogRetainsNoEvents: the log hands each event to its sink and keeps
// none. 10^5 appends to a sink that drops them grow the heap by at most 8
// bytes an event after two GCs (a log that kept every event retained about
// 208).
func TestLogRetainsNoEvents(t *testing.T) {
	const n = 100_000
	log := service.NewLog(func(service.Event) {})
	heap := func() int64 {
		var stats goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&stats)
		return int64(stats.HeapAlloc)
	}
	before := heap()
	for range n {
		log.Append(service.Event{Actor: "doctor", Action: core.ActionRead, Datastore: "ehr",
			UserID: "alice", Fields: []string{"name", "diagnosis"}})
	}
	per := (heap() - before) / n
	t.Logf("the heap grew %d bytes per appended event", per)
	if per > 8 {
		t.Errorf("heap grew %d bytes per appended event, want at most 8", per)
	}
	goruntime.KeepAlive(log)
}

// TestLogConcurrentAppend: with concurrent writers, every Seq reaches the
// sink exactly once, in increasing order.
func TestLogConcurrentAppend(t *testing.T) {
	var rec recorder
	log := service.NewLog(rec.sink)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				log.Append(service.Event{Actor: "a", Action: core.ActionRead, UserID: "u", Fields: []string{"f"}})
			}
		}()
	}
	wg.Wait()
	events := rec.received()
	if len(events) != writers*perWriter {
		t.Fatalf("received %d events, want %d", len(events), writers*perWriter)
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

func TestDatastorePutGetDelete(t *testing.T) {
	var rec recorder
	store := ehrDatastore(t, service.NewLog(rec.sink))

	if err := store.Put("doctor", "alice", "record", map[string]string{"name": "Alice", "diagnosis": "flu"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	values, err := store.Get("doctor", "alice", "review", []string{"name", "diagnosis"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if values["diagnosis"] != "flu" {
		t.Errorf("Get values = %v", values)
	}
	if got := store.Users(); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Errorf("Users() = %v", got)
	}
	if got := store.FieldsOf("alice"); !reflect.DeepEqual(got, []string{"diagnosis", "name"}) {
		t.Errorf("FieldsOf(alice) = %v", got)
	}
	if err := store.Delete("doctor", "alice", "erasure", []string{"diagnosis"}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := store.FieldsOf("alice"); !reflect.DeepEqual(got, []string{"name"}) {
		t.Errorf("FieldsOf after delete = %v", got)
	}
	// Event log recorded create, read and delete.
	actions := make(map[core.Action]int)
	for _, ev := range rec.received() {
		actions[ev.Action]++
		if ev.Denied {
			t.Errorf("unexpected denied event: %+v", ev)
		}
	}
	if actions[core.ActionCreate] != 1 || actions[core.ActionRead] != 1 || actions[core.ActionDelete] != 1 {
		t.Errorf("event actions = %v", actions)
	}
}

func TestDatastoreAccessControl(t *testing.T) {
	var rec recorder
	store := ehrDatastore(t, service.NewLog(rec.sink))
	if err := store.Put("doctor", "alice", "record", map[string]string{"diagnosis": "flu", "treatment": "rest", "name": "Alice"}); err != nil {
		t.Fatal(err)
	}

	// The nurse may read name and treatment but not the diagnosis.
	if _, err := store.Get("nurse", "alice", "care", []string{"name", "treatment"}); err != nil {
		t.Errorf("nurse read of permitted fields failed: %v", err)
	}
	_, err := store.Get("nurse", "alice", "care", []string{"diagnosis"})
	if !errors.Is(err, service.ErrDenied) {
		t.Errorf("nurse diagnosis read error = %v, want ErrDenied", err)
	}
	// The nurse may not write at all.
	if err := store.Put("nurse", "alice", "care", map[string]string{"treatment": "new"}); !errors.Is(err, service.ErrDenied) {
		t.Errorf("nurse write error = %v, want ErrDenied", err)
	}
	// Unknown fields are rejected before the policy is consulted.
	if _, err := store.Get("doctor", "alice", "care", []string{"ghost"}); !errors.Is(err, service.ErrUnknownField) {
		t.Errorf("unknown field error = %v, want ErrUnknownField", err)
	}
	// Denied operations are still audited.
	var denied int
	for _, ev := range rec.received() {
		if ev.Denied {
			denied++
		}
	}
	if denied != 2 {
		t.Errorf("denied events = %d, want 2", denied)
	}
}

func TestDatastoreAnonActionAndValidation(t *testing.T) {
	def := schema.Datastore{ID: "anon", Name: "Anon", Anonymised: true, Schema: schema.MustSchema("anon",
		schema.Field{Name: "weight_anon", Category: schema.CategorySensitive, Pseudonymised: true})}
	policy := accesscontrol.MustACL(accesscontrol.Grant{Actor: "dm", Datastore: "anon",
		Fields: []string{accesscontrol.AllFields}, Permissions: []accesscontrol.Permission{accesscontrol.PermissionWrite}})
	var rec recorder
	store, err := service.NewDatastore(def, policy, service.NewLog(rec.sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("dm", "alice", "study", map[string]string{"weight_anon": "100-110"}); err != nil {
		t.Fatal(err)
	}
	if got := rec.received(); len(got) != 1 || got[0].Action != core.ActionAnon {
		t.Errorf("anonymised store write recorded as %+v, want one anon event", got)
	}

	if _, err := service.NewDatastore(def, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := service.NewDatastore(schema.Datastore{ID: ""}, policy, nil); err == nil {
		t.Error("invalid definition accepted")
	}
}

func TestHTTPHandler(t *testing.T) {
	var rec recorder
	store := ehrDatastore(t, service.NewLog(rec.sink))
	server := httptest.NewServer(store.Handler())
	defer server.Close()
	ctx := context.Background()

	doctor := &service.Client{BaseURL: server.URL, Actor: "doctor"}
	nurse := &service.Client{BaseURL: server.URL, Actor: "nurse"}

	if err := doctor.Put(ctx, "alice", "record consultation", map[string]string{"name": "Alice", "diagnosis": "flu", "treatment": "rest"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	values, err := nurse.Get(ctx, "alice", "administer treatment", []string{"name", "treatment"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if values["treatment"] != "rest" {
		t.Errorf("values = %v", values)
	}
	// Forbidden read maps to ErrDenied.
	if _, err := nurse.Get(ctx, "alice", "curiosity", []string{"diagnosis"}); !errors.Is(err, service.ErrDenied) {
		t.Errorf("error = %v, want ErrDenied", err)
	}
	// Delete then read back.
	if err := doctor.Delete(ctx, "alice", "erasure", []string{"diagnosis"}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	values, err = doctor.Get(ctx, "alice", "review", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := values["diagnosis"]; ok {
		t.Error("diagnosis should be gone after delete")
	}

	// Protocol errors.
	resp, err := http.Get(server.URL + "/records/alice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing actor header status = %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, server.URL+"/records/alice", strings.NewReader("{}"))
	req.Header.Set(service.HeaderActor, "doctor")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(server.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /meta status = %d", resp.StatusCode)
	}
	// The sink saw the whole session: doctor put, nurse get, denied get,
	// delete, get. The protocol errors above reached no datastore.
	if got := len(rec.received()); got != 5 {
		t.Errorf("sink received %d events after the HTTP session, want 5", got)
	}
}

func TestStartServerAndStop(t *testing.T) {
	store := ehrDatastore(t, service.NewLog(func(service.Event) {}))
	server, err := service.StartServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	client := &service.Client{BaseURL: server.URL(), Actor: "doctor"}
	if err := client.Put(context.Background(), "bob", "record", map[string]string{"name": "Bob"}); err != nil {
		t.Fatalf("Put over real listener: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := server.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// After Stop the port no longer accepts requests.
	if err := client.Put(context.Background(), "bob", "record", map[string]string{"name": "Bob"}); err == nil {
		t.Error("request after Stop should fail")
	}
}

func TestClusterRunsSurgeryModel(t *testing.T) {
	var rec recorder
	cluster, err := service.StartCluster(casestudy.Surgery(), rec.sink)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = cluster.Stop(ctx)
	}()

	if got := len(cluster.Datastores()); got != 3 {
		t.Errorf("cluster datastores = %d, want 3", got)
	}
	ctx := context.Background()
	doctor, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorDoctor)
	if err != nil {
		t.Fatal(err)
	}
	if err := doctor.Put(ctx, "patient-1", "record consultation", map[string]string{
		casestudy.FieldName:      "Alice Example",
		casestudy.FieldDiagnosis: "bronchitis",
	}); err != nil {
		t.Fatalf("doctor Put: %v", err)
	}
	nurse, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorNurse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nurse.Get(ctx, "patient-1", "administer treatment", []string{casestudy.FieldName}); err != nil {
		t.Fatalf("nurse Get: %v", err)
	}
	// The researcher cannot read the raw EHR.
	researcher, err := cluster.Client(casestudy.StoreEHR, casestudy.ActorResearcher)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := researcher.Get(ctx, "patient-1", "curiosity", []string{casestudy.FieldDiagnosis}); !errors.Is(err, service.ErrDenied) {
		t.Errorf("researcher EHR read error = %v, want ErrDenied", err)
	}
	// Each request's event reached the sink before its answer did.
	if got := rec.received(); len(got) != 3 || !got[2].Denied {
		t.Errorf("sink received %+v, want the put, the read and the denied read", got)
	}
	if _, err := cluster.Client("ghost", "doctor"); err == nil {
		t.Error("client for unknown datastore accepted")
	}
	if _, err := cluster.URL("ghost"); err == nil {
		t.Error("URL for unknown datastore accepted")
	}

	// Error cases for StartCluster.
	if _, err := service.StartCluster(nil, rec.sink); err == nil {
		t.Error("nil model accepted")
	}
	noPolicy := casestudy.Surgery()
	noPolicy.Policy = nil
	if _, err := service.StartCluster(noPolicy, rec.sink); err == nil {
		t.Error("model without policy accepted")
	}
	if _, err := service.StartCluster(casestudy.Surgery(), nil); err == nil {
		t.Error("nil sink accepted")
	}
}
