// Package runtime monitors the privacy risks of a running distributed data
// service against its generated privacy model.
//
// The paper's stated goal is to use the models not only "to identify privacy
// risks during the development of an online service" but "also [to] monitor
// the privacy risks during the lifetime of the service (as the users, data,
// and behaviour may change)". The Monitor does exactly that: it keeps, per
// user, a cursor into the privacy LTS; every observed operation (an Event
// from package service) advances the cursor along a matching transition, the
// pre-computed risk assessment for that user is consulted, and an alert is
// raised when the observed transition carries a risk at or above the alert
// threshold or when the behaviour is not part of the model at all
// (unmodelled behaviour — a design/implementation mismatch).
//
// The monitor is built for production event rates: a user is a record in a
// slab found by one map probe, an event is matched against the edges leaving
// the user's state through a field mask per edge class, compiled once per
// monitor (see index.go), and profiles are interned in a borrowed
// risk.AssessmentCache, the one per-shape memo, so each shape's alerting
// findings are resolved once per cache, per edge class, however many monitors
// (an Engine's, or one per cluster node, internal/cluster) share it. One
// mutex guards the user records and the alert log; parallelism across users
// comes from running several monitors, not from inside one.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"privascope/internal/core"
	"privascope/internal/lts"
	"privascope/internal/risk"
	"privascope/internal/service"
)

// AlertKind classifies monitor alerts.
type AlertKind int

// Alert kinds. AlertRisk marks an observed transition whose assessed risk
// meets the threshold; AlertUnmodelled marks an observed operation with no
// matching transition in the model; AlertDenied marks an operation the
// access-control enforcement refused at runtime.
const (
	AlertRisk AlertKind = iota + 1
	AlertUnmodelled
	AlertDenied
)

// String returns the lower-case kind name.
func (k AlertKind) String() string {
	switch k {
	case AlertRisk:
		return "risk"
	case AlertUnmodelled:
		return "unmodelled-behaviour"
	case AlertDenied:
		return "denied-operation"
	default:
		return fmt.Sprintf("alertkind(%d)", int(k))
	}
}

// Alert is one notification raised by the monitor.
type Alert struct {
	Kind   AlertKind
	UserID string
	Event  service.Event
	// Risk and Finding are set for AlertRisk alerts.
	Risk    risk.Level
	Finding risk.Finding
	// Message is a human-readable summary.
	Message string
}

// Observation is the result of feeding one event to the monitor.
type Observation struct {
	// Matched reports whether a transition of the model matched the event.
	Matched bool
	// From and To are the user's privacy state before and after the event
	// (equal when no transition matched).
	From, To lts.StateID
	// Transition is the matched transition when Matched.
	Transition lts.Transition
	// Alerts raised by this observation, if any.
	Alerts []Alert
}

// user is one registered user: its shape's alerting findings by edge class
// (risk.AssessmentCache.AlertFindings, read-only), its profile's record in the
// cache's registry, its dense cursor and its cumulative counters. The
// findings are held through a pointer, so a slab record is 48 bytes, not 64.
type user struct {
	id              string
	findings        *[]*risk.Finding
	profile, state  int32
	applied, alerts int64
}

// Monitor tracks per-user privacy state against a privacy LTS. It is safe
// for concurrent use.
type Monitor struct {
	lts   *core.PrivacyLTS
	index *transitionIndex
	// alertAt is the minimum risk level that raises an alert.
	alertAt risk.Level
	// assessments interns every installed profile and analyses each of its
	// shapes once; other monitors may share it.
	assessments *risk.AssessmentCache

	// mu guards users, slab, alerts and shapes.
	mu     sync.Mutex
	users  map[string]int32 // user ID -> slab index
	slab   []user
	alerts alertLog
	shapes shapeTable
}

// Config configures a Monitor.
type Config struct {
	// Assessments is the per-shape cache that assesses users, shared with
	// whatever else holds it; a fresh cache over the default analyzer is
	// used when nil.
	Assessments *risk.AssessmentCache
	// AlertAt is the minimum risk level that raises an alert; defaults to
	// Medium.
	AlertAt risk.Level
}

// NewMonitor creates a monitor for the generated privacy LTS. A field mask
// per edge class of the model is compiled here, once, so Observe never scans
// label fields.
func NewMonitor(p *core.PrivacyLTS, cfg Config) (*Monitor, error) {
	if p == nil {
		return nil, errors.New("runtime: privacy LTS must not be nil")
	}
	assessments := cfg.Assessments
	if assessments == nil {
		var err error
		if assessments, err = risk.NewAssessmentCache(nil); err != nil {
			return nil, err
		}
	}
	alertAt := cfg.AlertAt
	if alertAt == 0 {
		alertAt = risk.LevelMedium
	}
	return &Monitor{
		lts:         p,
		index:       newTransitionIndex(p),
		alertAt:     alertAt,
		assessments: assessments,
		users:       make(map[string]int32),
		shapes:      shapeTable{seed: maphash.MakeSeed()},
	}, nil
}

// RegisterUser starts tracking a user: their cursor is placed at the initial
// (absolute privacy) state and their profile is assessed against the model so
// observed transitions can be mapped to risk levels cheaply. The monitor's
// cache keeps its own copy of the profile and analyses each profile shape
// once.
func (m *Monitor) RegisterUser(profile risk.UserProfile) error {
	return m.RegisterUserContext(context.Background(), profile)
}

// RegisterUserContext is RegisterUser with cancellation: the first
// registration of a profile shape runs a full risk analysis, which polls ctx
// and aborts with ctx.Err() when the caller cancels; nothing is cached for
// the shape in that case.
func (m *Monitor) RegisterUserContext(ctx context.Context, profile risk.UserProfile) error {
	return m.install(ctx, []UserSnapshot{{Profile: profile, State: m.lts.InitialState()}})
}

// install starts tracking each snapshot's user at the snapshot's state and
// counters, replacing whatever the monitor held for that ID. Registration
// installs the initial state with zero counters, import installs snapshots
// as they are. Every profile is interned and its shape's findings resolved
// before the lock is taken, once, for the whole batch: nothing is installed
// when any profile is invalid, any shape's analysis fails or ctx is done by
// then. A snapshot of the previous snapshot's record — in a handoff chunk, a
// run of users sharing its storage — takes that user's record and findings.
func (m *Monitor) install(ctx context.Context, snaps []UserSnapshot) error {
	users := make([]user, len(snaps))
	for i := range snaps {
		s, u := &snaps[i], &users[i]
		if i > 0 && risk.SameRecord(&snaps[i-1].Profile, &s.Profile) {
			u.profile, u.findings = users[i-1].profile, users[i-1].findings
		} else {
			var err error
			u.profile, u.findings, err = m.assessments.AlertFindings(ctx, m.lts, s.Profile, m.alertAt)
			if err != nil {
				return fmt.Errorf("runtime: profile of user %q: %w", s.Profile.ID, err)
			}
		}
		u.state, _ = m.lts.Graph.Index(s.State)
		u.id, u.applied, u.alerts = s.Profile.ID, s.Applied, s.Alerts
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.slab = slices.Grow(m.slab, len(users)) // once per batch, not in 1.25x steps
	for _, u := range users {
		if at, ok := m.users[u.id]; ok {
			m.slab[at] = u
			continue
		}
		m.users[u.id] = int32(len(m.slab))
		m.slab = append(m.slab, u)
	}
	return nil
}

// Users returns the IDs of registered users, sorted.
func (m *Monitor) Users() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.slab))
	for i := range m.slab {
		out = append(out, m.slab[i].id)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Alerts returns every alert raised so far, in the order they were raised.
// The alerts are the caller's own: they share no slice with the monitor.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	recs := make([]alertRec, 0, m.alerts.n)
	for _, block := range m.alerts.blocks {
		recs = append(recs, block...)
	}
	shapes := m.shapes.list
	m.mu.Unlock()
	return m.build(recs, shapes)
}

// AlertLogSize reports how many alert records the log holds and how many
// distinct event shapes they share.
func (m *Monitor) AlertLogSize() (records, shapes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alerts.n, len(m.shapes.list)
}

// alertRec is one logged alert: what it takes to build the Alert again, and
// nothing that a read can derive. The user ID shares the slab's string; the
// event is a shape of the monitor's table plus its sequence number and time.
type alertRec struct {
	user    string
	time    time.Time
	seq     int64
	finding *risk.Finding // AlertRisk: the edge class's shared finding
	shape   int32
	from    int32 // AlertUnmodelled: the dense state the event found its user in; -1 when denied
	edge    int32 // AlertRisk: the matched edge
	kind    AlertKind
}

// alertLog is the append-only alert log. Its blocks hold 8, 16, ... 512
// records, then 512 each, so an append never copies a block and a short log
// stays small.
type alertLog struct {
	blocks [][]alertRec
	n      int
}

func (l *alertLog) add(r alertRec) {
	if n := len(l.blocks); n == 0 || len(l.blocks[n-1]) == cap(l.blocks[n-1]) {
		l.blocks = append(l.blocks, make([]alertRec, 0, 8<<min(n, 6)))
	}
	last := &l.blocks[len(l.blocks)-1]
	*last = append(*last, r)
	l.n++
}

// eventShape is an alerting event without its user, sequence number and
// time. Its strings are its own: the event may be one of a decoded frame's,
// whose strings and Fields share storage with every other event of that
// frame, and a shape holding on to them would keep the whole frame alive for
// as long as the log lives.
type eventShape struct {
	actor, datastore, service, purpose string
	fields                             []string
	action                             core.Action
	denied                             bool
}

// is reports whether ev has this shape, telling nil Fields from empty ones.
func (s *eventShape) is(ev *service.Event) bool {
	return s.actor == ev.Actor && s.action == ev.Action && s.datastore == ev.Datastore &&
		s.service == ev.Service && s.purpose == ev.Purpose && s.denied == ev.Denied &&
		(s.fields == nil) == (ev.Fields == nil) && slices.Equal(s.fields, ev.Fields)
}

// shapeTable interns the shapes of alerting events. It only ever appends, so
// a copy of list taken under the monitor's lock stays valid after it.
type shapeTable struct {
	seed   maphash.Seed
	byHash map[uint64][]int32
	list   []eventShape
}

// intern returns the index of ev's shape, adding the shape when it is new.
// The hash only narrows the search; is decides.
func (t *shapeTable) intern(ev *service.Event) int32 {
	var h maphash.Hash
	h.SetSeed(t.seed)
	for _, s := range [...]string{ev.Actor, ev.Datastore, ev.Service, ev.Purpose} {
		h.WriteString(s)
		h.WriteByte(0)
	}
	for _, f := range ev.Fields {
		h.WriteString(f)
		h.WriteByte(0)
	}
	key := h.Sum64() ^ uint64(ev.Action)
	for _, i := range t.byHash[key] {
		if t.list[i].is(ev) {
			return i
		}
	}
	s := eventShape{
		actor: strings.Clone(ev.Actor), datastore: strings.Clone(ev.Datastore),
		service: strings.Clone(ev.Service), purpose: strings.Clone(ev.Purpose),
		fields: slices.Clone(ev.Fields), action: ev.Action, denied: ev.Denied,
	}
	for i, f := range s.fields {
		s.fields[i] = strings.Clone(f)
	}
	if t.byHash == nil {
		t.byHash = make(map[uint64][]int32)
	}
	i := int32(len(t.list))
	t.list = append(t.list, s)
	t.byHash[key] = append(t.byHash[key], i)
	return i
}

// build turns logged records into the alerts they record. A denied alert's
// message depends only on its shape and an unmodelled one's on its shape and
// state, so a read formats each of those once.
func (m *Monitor) build(recs []alertRec, shapes []eventShape) []Alert {
	out := make([]Alert, len(recs))
	messages := make(map[[2]int32]string)
	for i := range recs {
		r, s := &recs[i], &shapes[recs[i].shape]
		a := &out[i]
		a.Kind, a.UserID = r.kind, r.user
		a.Event = service.Event{
			Seq: r.seq, Time: r.time, Actor: s.actor, Action: s.action, Datastore: s.datastore,
			Service: s.service, Purpose: s.purpose, UserID: r.user, Fields: slices.Clone(s.fields), Denied: s.denied,
		}
		if a.Kind == AlertRisk {
			a.Finding = *r.finding
			f := &a.Finding
			f.Transition = m.lts.Graph.TransitionAt(r.edge)
			f.Fields, f.Scenarios = slices.Clone(f.Fields), slices.Clone(f.Scenarios)
			a.Risk = f.Risk
			a.Message = fmt.Sprintf("%s-risk disclosure event for user %q: %s", f.Risk, r.user, f.Explanation)
			continue
		}
		key := [2]int32{r.shape, r.from}
		msg, ok := messages[key]
		if !ok {
			ev := &a.Event
			if a.Kind == AlertDenied {
				msg = fmt.Sprintf("access-control denied %s by %q on %s.%v",
					ev.Action, ev.Actor, ev.Datastore, ev.Fields)
			} else {
				msg = fmt.Sprintf("observed %s of %v by %q on %q has no matching transition from state %s; the design model and the running system disagree",
					ev.Action, ev.Fields, ev.Actor, ev.Datastore, m.lts.Graph.StateAt(r.from))
			}
			messages[key] = msg
		}
		a.Message = msg
	}
	return out
}

// step is what applying one event did.
type step struct {
	// registered is false when the event named a user the monitor does not
	// track; nothing else is set and nothing changed.
	registered bool
	// from is the user's dense state before the event.
	from int32
	// matched and edge report the model edge the event took.
	matched bool
	edge    int32
	// raised is the kind of the alert the event raised — now the last entry
	// of m.alerts — or zero when it raised none. An event raises at most one.
	raised AlertKind
}

// apply is the one place a user's cursor advances and alerts are raised:
// Observe and IngestBatch both go through it, so the two ingestion paths
// record the same thing by construction — the cluster alert-equivalence
// property (internal/cluster) depends on that. The caller holds m.mu.
func (m *Monitor) apply(ev *service.Event) step {
	at, ok := m.users[ev.UserID]
	if !ok {
		return step{}
	}
	u := &m.slab[at]
	u.applied++
	st := step{registered: true, from: u.state}
	if ev.Denied {
		st.raised = m.raise(u, ev, alertRec{kind: AlertDenied, from: -1})
		return st
	}
	st.edge, st.matched = m.index.match(u.state, ev)
	if !st.matched {
		st.raised = m.raise(u, ev, alertRec{kind: AlertUnmodelled, from: st.from})
		return st
	}
	u.state = m.lts.Graph.To(st.edge)
	if finding := (*u.findings)[m.index.view.Class(st.edge)]; finding != nil {
		st.raised = m.raise(u, ev, alertRec{kind: AlertRisk, edge: st.edge, finding: finding})
	}
	return st
}

// raise completes the record with the event's user, shape, sequence number
// and time, appends it to the log, counts it for the user and returns its
// kind. The caller holds m.mu.
func (m *Monitor) raise(u *user, ev *service.Event, r alertRec) AlertKind {
	r.user, r.seq, r.time, r.shape = u.id, ev.Seq, ev.Time, m.shapes.intern(ev)
	m.alerts.add(r)
	u.alerts++
	return r.kind
}

// Observe feeds one event to the monitor and returns the resulting
// observation. Events for unregistered users are an error; callers decide
// whether that is fatal (tests) or just logged (live deployments).
func (m *Monitor) Observe(ev service.Event) (Observation, error) {
	m.mu.Lock()
	st := m.apply(&ev)
	var raised []alertRec
	if st.raised != 0 {
		last := m.alerts.blocks[len(m.alerts.blocks)-1]
		raised = []alertRec{last[len(last)-1]}
	}
	shapes := m.shapes.list
	m.mu.Unlock()
	if !st.registered {
		return Observation{}, fmt.Errorf("runtime: user %q is not registered with the monitor", ev.UserID)
	}
	from := m.lts.Graph.StateAt(st.from)
	obs := Observation{From: from, To: from}
	if st.matched {
		obs.Matched = true
		obs.Transition = m.lts.Graph.TransitionAt(st.edge)
		obs.To = obs.Transition.To
	}
	if raised != nil {
		obs.Alerts = m.build(raised, shapes)
	}
	return obs, nil
}

// IngestStats aggregates one batched ingestion: how many events were applied
// and how each resolved. Events + 0 = Matched + Unmodelled + Denied +
// Unregistered; RiskAlerts counts the matched events that additionally raised
// an AlertRisk.
type IngestStats struct {
	// Events is the number of events processed: the whole input.
	Events int
	// Matched events advanced their user's cursor along a model transition.
	Matched int
	// Unmodelled events had no matching transition and raised
	// AlertUnmodelled.
	Unmodelled int
	// Denied events were refused by access control and raised AlertDenied.
	Denied int
	// RiskAlerts counts matched events that raised an AlertRisk.
	RiskAlerts int
	// Unregistered events named a user the monitor does not track; they are
	// counted and dropped (the fleet ingestion path must not fail a whole
	// frame over one unknown user).
	Unregistered int
}

// Merge accumulates stats (per-batch node totals, per-node fleet totals).
func (s *IngestStats) Merge(o IngestStats) {
	s.Events += o.Events
	s.Matched += o.Matched
	s.Unmodelled += o.Unmodelled
	s.Denied += o.Denied
	s.RiskAlerts += o.RiskAlerts
	s.Unregistered += o.Unregistered
}

// IngestBatch is the monitor's batch ingestion path, built for the cluster
// ingest protocol (internal/cluster): it applies the batch exactly like one
// Observe call per event — same cursor movement, same alerts, byte-identical
// alert log — but returns aggregate counts instead of materialising one
// Observation per event, takes the lock once per batch instead of once per
// event, and counts events for unregistered users instead of failing.
func (m *Monitor) IngestBatch(events []service.Event) IngestStats {
	var stats IngestStats
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range events {
		st := m.apply(&events[i])
		stats.Events++
		switch {
		case !st.registered:
			stats.Unregistered++
		case st.raised == AlertDenied:
			stats.Denied++
		case !st.matched:
			stats.Unmodelled++
		default:
			stats.Matched++
			if st.raised == AlertRisk {
				stats.RiskAlerts++
			}
		}
	}
	return stats
}
