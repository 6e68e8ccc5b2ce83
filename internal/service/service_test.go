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

func TestLogAppendAndSubscribe(t *testing.T) {
	log := service.NewLog()
	base := time.Date(2026, 6, 15, 10, 0, 0, 0, time.UTC)
	log.SetClock(func() time.Time { return base })

	ch, cancel := log.Subscribe(4)
	defer cancel()

	ev := log.Append(service.Event{Actor: "doctor", Action: core.ActionCreate, UserID: "alice", Fields: []string{"name"}})
	if ev.Seq != 1 || !ev.Time.Equal(base) {
		t.Errorf("appended event = %+v", ev)
	}
	log.Append(service.Event{Actor: "nurse", Action: core.ActionRead, UserID: "alice", Fields: []string{"treatment"}})
	// Subscriber sees both events, in order.
	got := received(ch)
	if len(got) != 2 || got[0].Actor != "doctor" || got[1].Actor != "nurse" || got[1].Seq != 2 {
		t.Errorf("subscription delivered %+v", got)
	}
	// Cancel closes the channel and later events are not delivered.
	cancel()
	if _, ok := <-ch; ok {
		t.Error("channel should be closed after cancel")
	}
	if ev := log.Append(service.Event{Actor: "doctor", Action: core.ActionRead, UserID: "alice", Fields: []string{"name"}}); ev.Seq != 3 {
		t.Errorf("append after cancel numbered %d, want 3", ev.Seq)
	}
}

// received returns the events waiting on a subscription, without blocking.
func received(ch <-chan service.Event) []service.Event {
	var out []service.Event
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestLogRetainsNoEvents: the log hands each event to the subscribers of the
// moment and keeps none. 10^5 appends with no subscriber grow the heap by at
// most 8 bytes an event after two GCs (a log that kept every event retained
// about 208).
func TestLogRetainsNoEvents(t *testing.T) {
	const n = 100_000
	log := service.NewLog()
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

func TestNextBatch(t *testing.T) {
	ch := make(chan service.Event, 8)
	for i := 0; i < 5; i++ {
		ch <- service.Event{Seq: int64(i + 1)}
	}
	// Blocks for the first event, then drains without blocking up to max.
	batch := service.NextBatch(ch, 3)
	if len(batch) != 3 || batch[0].Seq != 1 || batch[2].Seq != 3 {
		t.Fatalf("NextBatch = %+v, want events 1..3", batch)
	}
	// Remaining events, fewer than max: returns what is pending.
	batch = service.NextBatch(ch, 10)
	if len(batch) != 2 || batch[0].Seq != 4 {
		t.Fatalf("NextBatch = %+v, want events 4..5", batch)
	}
	// max <= 0 selects a sane default instead of panicking.
	ch <- service.Event{Seq: 6}
	if batch = service.NextBatch(ch, 0); len(batch) != 1 || batch[0].Seq != 6 {
		t.Fatalf("NextBatch(max=0) = %+v", batch)
	}
	// Closed and drained: nil.
	close(ch)
	if batch = service.NextBatch(ch, 4); batch != nil {
		t.Fatalf("NextBatch on closed channel = %+v, want nil", batch)
	}
	// Closing mid-drain returns the partial batch.
	ch2 := make(chan service.Event, 2)
	ch2 <- service.Event{Seq: 1}
	close(ch2)
	if batch = service.NextBatch(ch2, 8); len(batch) != 1 {
		t.Fatalf("NextBatch on closing channel = %+v, want the one event", batch)
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	log := service.NewLog()
	var wg sync.WaitGroup
	const writers, perWriter = 8, 50
	ch, cancel := log.Subscribe(writers * perWriter)
	defer cancel()
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
	events := received(ch)
	if len(events) != writers*perWriter {
		t.Fatalf("received %d events, want %d", len(events), writers*perWriter)
	}
	seen := make(map[int64]bool)
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate sequence number %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestDatastorePutGetDelete(t *testing.T) {
	log := service.NewLog()
	events, cancel := log.Subscribe(16)
	defer cancel()
	store := ehrDatastore(t, log)

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
	for _, ev := range received(events) {
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
	log := service.NewLog()
	events, cancel := log.Subscribe(16)
	defer cancel()
	store := ehrDatastore(t, log)
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
	for _, ev := range received(events) {
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
	log := service.NewLog()
	events, cancel := log.Subscribe(4)
	defer cancel()
	store, err := service.NewDatastore(def, policy, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("dm", "alice", "study", map[string]string{"weight_anon": "100-110"}); err != nil {
		t.Fatal(err)
	}
	if got := (<-events).Action; got != core.ActionAnon {
		t.Errorf("anonymised store write recorded as %v, want anon", got)
	}

	if _, err := service.NewDatastore(def, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := service.NewDatastore(schema.Datastore{ID: ""}, policy, nil); err == nil {
		t.Error("invalid definition accepted")
	}
}

func TestHTTPHandler(t *testing.T) {
	log := service.NewLog()
	events, cancel := log.Subscribe(64)
	defer cancel()
	store := ehrDatastore(t, log)
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
	// The audit log saw the whole session.
	if len(received(events)) == 0 {
		t.Error("event log delivered nothing after HTTP traffic")
	}
}

func TestStartServerAndStop(t *testing.T) {
	store := ehrDatastore(t, service.NewLog())
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
	cluster, err := service.StartCluster(casestudy.Surgery())
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
	events, cancel := cluster.Log().Subscribe(16)
	defer cancel()
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
	if got := len(received(events)); got < 3 {
		t.Errorf("cluster log delivered %d events, want >= 3", got)
	}
	if _, err := cluster.Client("ghost", "doctor"); err == nil {
		t.Error("client for unknown datastore accepted")
	}
	if _, err := cluster.URL("ghost"); err == nil {
		t.Error("URL for unknown datastore accepted")
	}

	// Error cases for StartCluster.
	if _, err := service.StartCluster(nil); err == nil {
		t.Error("nil model accepted")
	}
	noPolicy := casestudy.Surgery()
	noPolicy.Policy = nil
	if _, err := service.StartCluster(noPolicy); err == nil {
		t.Error("model without policy accepted")
	}
}
