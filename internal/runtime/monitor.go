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
// The monitor is built for production event rates: each user's state is one
// record found by one map probe, event matching runs against a transition
// index compiled once per model (see index.go), and risk assessments are
// deduplicated through a profile-fingerprint cache, so registering the
// millionth user with an already-seen profile shape is O(1). One mutex guards
// the user records and the alert log; parallelism across users comes from
// running one monitor per cluster node (internal/cluster), not from inside
// the monitor.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// findingKey indexes a user's assessment findings by the matched transition
// and the at-risk actor, so an observed event maps to its risk level in
// O(1). Transitions compare by value: (From, To, Label); generation shares
// label pointers, so this equals identity of the disclosure event.
type findingKey struct {
	tr    lts.Transition
	actor string
}

// findingsIndex is the per-profile-shape risk lookup table. It is built once
// per shape and shared read-only by every user with that shape.
type findingsIndex map[findingKey]risk.Finding

// userState is everything the monitor keeps for one registered user: the
// portable part (profile, cursor, cumulative counters — exactly what
// ExportUser hands out) plus the findings index shared with every user of
// the same profile shape.
type userState struct {
	UserSnapshot
	findings findingsIndex
}

// Monitor tracks per-user privacy state against a privacy LTS. It is safe
// for concurrent use.
type Monitor struct {
	lts   *core.PrivacyLTS
	cache *risk.AssessmentCache
	index *transitionIndex
	// alertAt is the minimum risk level that raises an alert.
	alertAt risk.Level

	// mu guards users, every userState in it, and alerts.
	mu     sync.Mutex
	users  map[string]*userState
	alerts []Alert

	// shapes caches the compiled findings index per profile fingerprint.
	// Deduplication of the underlying (expensive) risk analysis is the
	// assessment cache's job; this memo only spares re-deriving the lookup
	// table from the shared assessment.
	shapeMu     sync.Mutex
	shapes      map[string]findingsIndex
	shapeHits   atomic.Int64
	shapeMisses atomic.Int64
}

// Config configures a Monitor.
type Config struct {
	// Analyzer is the disclosure-risk analyzer used to assess users; the
	// default configuration is used when nil.
	Analyzer *risk.Analyzer
	// AlertAt is the minimum risk level that raises an alert; defaults to
	// Medium.
	AlertAt risk.Level
}

// NewMonitor creates a monitor for the generated privacy LTS. The model's
// transition index is compiled here, once, so Observe never scans labels.
func NewMonitor(p *core.PrivacyLTS, cfg Config) (*Monitor, error) {
	if p == nil {
		return nil, errors.New("runtime: privacy LTS must not be nil")
	}
	cache, err := risk.NewAssessmentCache(cfg.Analyzer)
	if err != nil {
		return nil, err
	}
	alertAt := cfg.AlertAt
	if alertAt == 0 {
		alertAt = risk.LevelMedium
	}
	return &Monitor{
		lts:     p,
		cache:   cache,
		index:   newTransitionIndex(p),
		alertAt: alertAt,
		users:   make(map[string]*userState),
		shapes:  make(map[string]findingsIndex),
	}, nil
}

// AssessmentCacheStats reports how many user registrations were served from
// the profile-fingerprint cache versus assessed from scratch.
func (m *Monitor) AssessmentCacheStats() (hits, misses int64) {
	return m.shapeHits.Load(), m.shapeMisses.Load()
}

// RegisterUser starts tracking a user: their cursor is placed at the initial
// (absolute privacy) state and their profile is assessed against the model so
// observed transitions can be mapped to risk levels cheaply. The assessment
// and its findings index are computed once per profile shape (Fingerprint)
// and shared, so registration is O(1) after the first user of each shape.
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
// as they are. Every shape is resolved before the lock is taken, once, for
// the whole batch: nothing is installed when any shape's analysis fails or
// ctx is done by then.
func (m *Monitor) install(ctx context.Context, snaps []UserSnapshot) error {
	states := make([]*userState, len(snaps))
	for i := range snaps {
		index, err := m.shapeIndex(ctx, snaps[i].Profile)
		if err != nil {
			return err
		}
		states[i] = &userState{UserSnapshot: snaps[i], findings: index}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	for _, u := range states {
		m.users[u.Profile.ID] = u
	}
	m.mu.Unlock()
	return nil
}

// shapeIndex returns the shared findings index for the profile's shape,
// building it on first use. Registrations racing on a brand-new shape may
// each derive the (cheap) lookup table, but the expensive analysis beneath
// is single-flighted by the assessment cache; the first inserted index wins
// so all users of a shape share one table.
func (m *Monitor) shapeIndex(ctx context.Context, profile risk.UserProfile) (findingsIndex, error) {
	fp := profile.Fingerprint()
	m.shapeMu.Lock()
	index, ok := m.shapes[fp]
	m.shapeMu.Unlock()
	if ok {
		m.shapeHits.Add(1)
		return index, nil
	}
	m.shapeMisses.Add(1)
	assessment, err := m.cache.AnalyzeFingerprinted(ctx, m.lts, profile, fp)
	if err != nil {
		return nil, err
	}
	index = make(findingsIndex, len(assessment.Findings))
	for _, f := range assessment.Findings {
		key := findingKey{tr: f.Transition, actor: f.Actor}
		if existing, ok := index[key]; !ok || f.Risk > existing.Risk {
			index[key] = f
		}
	}
	m.shapeMu.Lock()
	if existing, ok := m.shapes[fp]; ok {
		index = existing
	} else {
		m.shapes[fp] = index
	}
	m.shapeMu.Unlock()
	return index, nil
}

// Users returns the IDs of registered users, sorted.
func (m *Monitor) Users() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.users))
	for id := range m.users {
		out = append(out, id)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// CurrentState returns the user's current privacy state.
func (m *Monitor) CurrentState(userID string) (lts.StateID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.users[userID]
	if !ok {
		return "", false
	}
	return u.State, true
}

// CurrentVector returns the user's current privacy state vector.
func (m *Monitor) CurrentVector(userID string) (core.StateVector, bool) {
	id, ok := m.CurrentState(userID)
	if !ok {
		return core.StateVector{}, false
	}
	return m.lts.Vector(id)
}

// Alerts returns a copy of every alert raised so far, in the order they were
// raised.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// AlertsFor returns the alerts concerning one user.
func (m *Monitor) AlertsFor(userID string) []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Alert
	for _, a := range m.alerts {
		if a.UserID == userID {
			out = append(out, a)
		}
	}
	return out
}

func deniedAlert(ev *service.Event) Alert {
	return Alert{
		Kind:   AlertDenied,
		UserID: ev.UserID,
		Event:  *ev,
		Message: fmt.Sprintf("access-control denied %s by %q on %s.%v",
			ev.Action, ev.Actor, ev.Datastore, ev.Fields),
	}
}

func unmodelledAlert(ev *service.Event, cursor lts.StateID) Alert {
	return Alert{
		Kind:   AlertUnmodelled,
		UserID: ev.UserID,
		Event:  *ev,
		Message: fmt.Sprintf("observed %s of %v by %q on %q has no matching transition from state %s; the design model and the running system disagree",
			ev.Action, ev.Fields, ev.Actor, ev.Datastore, cursor),
	}
}

func riskAlert(ev *service.Event, finding risk.Finding) Alert {
	return Alert{
		Kind:    AlertRisk,
		UserID:  ev.UserID,
		Event:   *ev,
		Risk:    finding.Risk,
		Finding: finding,
		Message: fmt.Sprintf("%s-risk disclosure event for user %q: %s", finding.Risk, ev.UserID, finding.Explanation),
	}
}

// step is what applying one event did.
type step struct {
	// registered is false when the event named a user the monitor does not
	// track; nothing else is set and nothing changed.
	registered bool
	// from is the user's state before the event.
	from lts.StateID
	// matched and transition report the model transition the event took.
	matched    bool
	transition lts.Transition
	// raised is the kind of the alert the event raised — now the last entry
	// of m.alerts — or zero when it raised none. An event raises at most one.
	raised AlertKind
}

// apply is the one place a user's cursor advances and alerts are raised:
// Observe and IngestBatch both go through it, so the two ingestion paths
// record the same thing by construction — the cluster alert-equivalence
// property (internal/cluster) depends on that. The caller holds m.mu.
func (m *Monitor) apply(ev *service.Event) step {
	u, ok := m.users[ev.UserID]
	if !ok {
		return step{}
	}
	u.Applied++
	st := step{registered: true, from: u.State}
	if ev.Denied {
		st.raised = m.raise(u, deniedAlert(ev))
		return st
	}
	st.transition, st.matched = m.index.match(u.State, ev)
	if !st.matched {
		st.raised = m.raise(u, unmodelledAlert(ev, u.State))
		return st
	}
	u.State = st.transition.To
	// Alert only when the observed actor is the non-allowed actor the finding
	// concerns: a consented-service flow that merely exposes data to someone
	// else is design-time knowledge (already in the static assessment), while
	// the non-allowed actor actually reading the data is a live disclosure
	// event.
	if finding, ok := u.findings[findingKey{tr: st.transition, actor: ev.Actor}]; ok &&
		finding.Risk >= m.alertAt {
		st.raised = m.raise(u, riskAlert(ev, finding))
	}
	return st
}

// raise appends the alert to the log, counts it for the user and returns its
// kind. The caller holds m.mu.
//
// The log owns what it keeps: the caller's event may be one of a decoded
// frame's, whose strings and Fields share storage with every other event of
// that frame, and an alert holding on to them would keep the whole frame alive
// for as long as the log lives.
func (m *Monitor) raise(u *userState, alert Alert) AlertKind {
	ev := &alert.Event
	alert.UserID, ev.UserID = u.Profile.ID, u.Profile.ID
	ev.Actor, ev.Datastore = strings.Clone(ev.Actor), strings.Clone(ev.Datastore)
	ev.Service, ev.Purpose = strings.Clone(ev.Service), strings.Clone(ev.Purpose)
	ev.Fields = slices.Clone(ev.Fields)
	for i, f := range ev.Fields {
		ev.Fields[i] = strings.Clone(f)
	}
	m.alerts = append(m.alerts, alert)
	u.Alerts++
	return alert.Kind
}

// Observe feeds one event to the monitor and returns the resulting
// observation. Events for unregistered users are an error; callers decide
// whether that is fatal (tests) or just logged (live deployments).
func (m *Monitor) Observe(ev service.Event) (Observation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.apply(&ev)
	if !st.registered {
		return Observation{}, fmt.Errorf("runtime: user %q is not registered with the monitor", ev.UserID)
	}
	obs := Observation{From: st.from, To: st.from}
	if st.matched {
		obs.Matched = true
		obs.Transition = st.transition
		obs.To = st.transition.To
	}
	if st.raised != 0 {
		obs.Alerts = []Alert{m.alerts[len(m.alerts)-1]}
	}
	return obs, nil
}

// ObserveBatch feeds a slice of events to the monitor in input order. The
// returned observations align with the input slice. Events for unregistered
// users yield a zero Observation and contribute to the joined error; the
// remaining events are still processed.
func (m *Monitor) ObserveBatch(events []service.Event) ([]Observation, error) {
	return m.ObserveBatchContext(context.Background(), events)
}

// ObserveBatchContext is ObserveBatch with cancellation: ctx is polled
// between events and the remainder of the batch is not applied once it is
// done; the returned error then wraps ctx.Err(). Events skipped by
// cancellation yield a zero Observation.
func (m *Monitor) ObserveBatchContext(ctx context.Context, events []service.Event) ([]Observation, error) {
	out := make([]Observation, len(events))
	var errs []error
	for i := range events {
		if err := ctx.Err(); err != nil {
			return out, errors.Join(append(errs, err)...)
		}
		obs, err := m.Observe(events[i])
		out[i] = obs
		if err != nil {
			errs = append(errs, fmt.Errorf("event %d: %w", i, err))
		}
	}
	return out, errors.Join(errs...)
}

// Watch consumes events from the channel until it is closed, observing each
// one. Events for unregistered users are counted but otherwise ignored. It
// returns the number of events observed. Run it in its own goroutine for
// live monitoring:
//
//	events, cancel := cluster.Log().Subscribe(128)
//	defer cancel()
//	go monitor.Watch(events)
func (m *Monitor) Watch(events <-chan service.Event) int {
	n := 0
	for ev := range events {
		n++
		_, _ = m.Observe(ev)
	}
	return n
}

// IngestStats aggregates one batched ingestion: how many events were applied
// and how each resolved. Events + 0 = Matched + Unmodelled + Denied +
// Unregistered; RiskAlerts counts the matched events that additionally raised
// an AlertRisk.
type IngestStats struct {
	// Events is the number of events processed (the whole input unless the
	// context was cancelled mid-batch).
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

// ingestCancelStride is how many events IngestBatchContext applies between
// context polls: context.Err takes a lock, so per-event polling would cost
// more than the work it guards.
const ingestCancelStride = 256

// IngestBatch is the monitor's high-throughput ingestion path, built for the
// cluster ingest protocol (internal/cluster): it applies the batch exactly
// like ObserveBatch — same cursor movement, same alerts, byte-identical
// alert log — but returns aggregate counts instead of materialising one
// Observation per event, takes the lock once per batch instead of once per
// event, and counts events for unregistered users instead of failing.
func (m *Monitor) IngestBatch(events []service.Event) IngestStats {
	stats, _ := m.IngestBatchContext(context.Background(), events)
	return stats
}

// IngestBatchContext is IngestBatch with cancellation: ctx is polled every
// ingestCancelStride events and the remainder of the batch is not applied
// once it is done; the error is ctx.Err(). Events skipped by cancellation
// are not counted in the stats.
func (m *Monitor) IngestBatchContext(ctx context.Context, events []service.Event) (IngestStats, error) {
	var stats IngestStats
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range events {
		if i%ingestCancelStride == 0 && ctx.Err() != nil {
			break
		}
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
	return stats, ctx.Err()
}
