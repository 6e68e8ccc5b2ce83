package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"privascope/internal/accesscontrol"
	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/risk"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// Everything here is a pure function of the seed: the program under test
// receives only what these functions generate. Seeds change identities and
// values (user IDs, which users alert, sensitivities, which services a
// profile consents to) but never the amount of work, so runs on different
// seeds are comparable.

// sizes are the dimensions of the generated inputs. fullSizes is what the
// benchmark measures; miniSizes is the same shape, small enough that a test
// can take all six workloads through the correctness gate in a second.
type sizes struct {
	xl, large, medium synth.ModelSpec
	replicas          int
	// saturateUsers run one script each per ingest_saturate generation.
	saturateUsers int
	// steadyRate and rebalanceRate are events per second; steadyCohort users
	// run their scripts together; rebalanceUsers are registered up front.
	steadyRate, steadyCohort      int
	rebalanceRate, rebalanceUsers int
	// cyclePeriod is how often ingest_rebalance starts a membership cycle.
	cyclePeriod time.Duration
	// stageBudget is how long a traced run times each stage replayed alone.
	stageBudget time.Duration
	// golden says whether testdata/golden.json describes these sizes.
	golden bool
}

var fullSizes = sizes{
	xl:             synth.ModelSpec{Services: 6, FieldsPerService: 2},
	large:          synth.ModelSpec{Services: 5, FieldsPerService: 3},
	medium:         synth.ModelSpec{Services: 4, FieldsPerService: 3},
	replicas:       5,
	saturateUsers:  32768,
	steadyRate:     50000,
	steadyCohort:   8192,
	rebalanceRate:  16000,
	rebalanceUsers: 65536,
	cyclePeriod:    4 * time.Second,
	stageBudget:    400 * time.Millisecond,
	golden:         true,
}

var miniSizes = sizes{
	xl:             synth.ModelSpec{Services: 3, FieldsPerService: 2},
	large:          synth.ModelSpec{Services: 2, FieldsPerService: 3},
	medium:         synth.ModelSpec{Services: 2, FieldsPerService: 2},
	replicas:       3,
	saturateUsers:  256,
	steadyRate:     4000,
	steadyCohort:   128,
	rebalanceRate:  2000,
	rebalanceUsers: 512,
	cyclePeriod:    time.Second,
	stageBudget:    2 * time.Millisecond,
}

// modelDoc is one model document of the assessment cycle: the JSON bytes an
// operation starts from and the profile it is assessed for.
type modelDoc struct {
	class   string
	json    []byte
	profile risk.UserProfile
}

// seededProfile draws a profile for the model: it consents to exactly
// `consents` services (which ones is the seed's choice; the synthetic models'
// services are structurally alike, so the analysis does the same work) and
// draws sensitivities like synth.Population does.
func seededProfile(rng *rand.Rand, m *dataflow.Model, id string, consents int) risk.UserProfile {
	services := m.ServiceIDs()
	if consents > len(services) {
		consents = len(services)
	}
	sensitive := make(map[string]bool)
	for _, f := range synth.SensitiveFieldsOf(m) {
		sensitive[f] = true
	}
	p := risk.UserProfile{ID: id, Sensitivities: make(map[string]float64), DefaultSensitivity: 0.1}
	for _, i := range rng.Perm(len(services))[:consents] {
		p.ConsentedServices = append(p.ConsentedServices, services[i])
	}
	for _, f := range m.FieldUniverse() {
		if sensitive[f] {
			p.Sensitivities[f] = 0.7 + rng.Float64()*0.3
		} else {
			p.Sensitivities[f] = rng.Float64() * 0.5
		}
	}
	return p
}

// buildDocs generates the six model documents in cycle order and checks that
// the two edits of `large` are what their names claim.
func buildDocs(seed int64, sz sizes) ([]modelDoc, error) {
	rng := rand.New(rand.NewSource(seed))
	seeded := func(spec synth.ModelSpec) *dataflow.Model {
		spec.Seed = seed
		return synth.Model(spec)
	}
	large := func() *dataflow.Model { return seeded(sz.large) }
	policyEdit := large()
	acl, ok := policyEdit.Policy.(*accesscontrol.ACL)
	if !ok {
		return nil, fmt.Errorf("synthetic model carries no ACL")
	}
	policyEdit.Policy = acl.Restrict("maintenance", "store0", []string{"field_0_0"})
	metaEdit := large()
	metaEdit.Actors[0].Name += " (renamed)"
	if kind := explore.Diff(large(), policyEdit).Kind; kind != explore.DeltaPolicy {
		return nil, fmt.Errorf("large_policy_edit classified %s, want policy", kind)
	}
	if kind := explore.Diff(large(), metaEdit).Kind; kind != explore.DeltaMetadata {
		return nil, fmt.Errorf("large_meta_edit classified %s, want metadata", kind)
	}
	models := map[string]*dataflow.Model{
		"xl":                seeded(sz.xl),
		"large":             large(),
		"large_policy_edit": policyEdit,
		"large_meta_edit":   metaEdit,
		"symmetric":         synth.SymmetricModel(synth.SymmetricSpec{Replicas: sz.replicas}),
		"surgery":           casestudy.Surgery(),
	}
	docs := make([]modelDoc, 0, len(assessClasses))
	for _, class := range assessClasses {
		m := models[class]
		data, err := dataflow.Marshal(m)
		if err != nil {
			return nil, err
		}
		profile := casestudy.PatientProfile()
		if class != "surgery" {
			// Consent to all services but two: enough non-allowed actors that
			// the analysis has findings on every state.
			profile = seededProfile(rng, m, fmt.Sprintf("subject-%d", seed), len(m.Services)-2)
		}
		docs = append(docs, modelDoc{class: class, json: data, profile: profile})
	}
	return docs, nil
}

// populationShapes and populationUsers size one assess_population operation:
// 7 of 8 users hit the analyzer's shape cache, 1 of 8 misses it.
const (
	populationShapes = 32
	populationUsers  = 256
)

// populationProfiles draws the profiles of one population operation: shapes
// no earlier operation of the process has used, each shared by eight users.
func populationProfiles(seed int64, op int, m *dataflow.Model) []risk.UserProfile {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(op)))
	shapes := make([]risk.UserProfile, populationShapes)
	for s := range shapes {
		shapes[s] = seededProfile(rng, m, "", 1+s%3)
	}
	out := make([]risk.UserProfile, populationUsers)
	for u := range out {
		out[u] = shapes[u%populationShapes]
		out[u].ID = fmt.Sprintf("s%d-op%d-user%03d", seed, op, u)
	}
	return out
}

// mediumDoc is the assess_population model document.
func mediumDoc(seed int64, sz sizes) ([]byte, error) {
	spec := sz.medium
	spec.Seed = seed
	return dataflow.Marshal(synth.Model(spec))
}

// alertEvery is the share of monitored users whose script ends in an
// alerting event: one in 64.
const alertEvery = 64

// userKind says how a monitored user's script ends.
type userKind uint8

const (
	userQuiet userKind = iota
	userDenied
	userUnmodelled
)

// ingestInputs are the generated users and events of an ingest workload.
// Events are built on demand from six shared templates (only UserID varies),
// in a fixed order every consumer — the Router and the reference monitor —
// reads the same way.
type ingestInputs struct {
	ids       []string
	kinds     []userKind
	templates []service.Event
	scriptLen int
	// cohort users run their scripts together, round-robin by script
	// position; firstPos is the script position the stream starts at.
	cohort   int
	firstPos int
	probeIDs []string
}

func newIngestInputs(seed int64, users, cohort, firstPos int) *ingestInputs {
	in := &ingestInputs{
		ids:       make([]string, users),
		kinds:     make([]userKind, users),
		templates: casestudy.MedicalServiceEvents(""),
		cohort:    cohort,
		firstPos:  firstPos,
	}
	in.scriptLen = len(in.templates)
	for i := range in.ids {
		in.ids[i] = fmt.Sprintf("s%d-u%06d", seed, i)
	}
	rng := rand.New(rand.NewSource(seed))
	for n, i := range rng.Perm(users)[:users/alertEvery] {
		in.kinds[i] = userDenied
		if n%2 == 1 {
			in.kinds[i] = userUnmodelled
		}
	}
	return in
}

// perCohort is the number of events one cohort contributes to the stream.
func (in *ingestInputs) perCohort() int { return in.cohort * (in.scriptLen - in.firstPos) }

// streamLen is the number of events in the whole stream.
func (in *ingestInputs) streamLen() int { return len(in.ids) / in.cohort * in.perCohort() }

// at returns the k-th event of the stream.
func (in *ingestInputs) at(k int) service.Event {
	c, r := k/in.perCohort(), k%in.perCohort()
	return in.event(c*in.cohort+r%in.cohort, in.firstPos+r/in.cohort)
}

// event is user u's event at script position pos; an alerting user's last
// event is a denied operation or one the model does not have.
func (in *ingestInputs) event(u, pos int) service.Event {
	ev := in.templates[pos]
	ev.UserID = in.ids[u]
	if pos == in.scriptLen-1 {
		switch in.kinds[u] {
		case userDenied:
			ev.Denied = true
		case userUnmodelled:
			ev.Actor = casestudy.ActorResearcher
		}
	}
	return ev
}

// fill writes events k, k+1, ... of the stream into buf.
func (in *ingestInputs) fill(buf []service.Event, k int) {
	for i := range buf {
		buf[i] = in.at(k + i)
	}
}

// chunks hands the first n events of the stream to f, sendChunk at a time,
// in a buffer it reuses.
func (in *ingestInputs) chunks(n int, f func([]service.Event) error) error {
	buf := make([]service.Event, sendChunk)
	for k := 0; k < n; k += sendChunk {
		chunk := buf[:min(sendChunk, n-k)]
		in.fill(chunk, k)
		if err := f(chunk); err != nil {
			return err
		}
	}
	return nil
}

// probeEvent is the alerting event a latency probe sends for its user.
func probeEvent(id string) service.Event {
	return service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead,
		Datastore: casestudy.StoreEHR, UserID: id, Fields: []string{casestudy.FieldDiagnosis}, Denied: true}
}

// inputDigest hashes the generated inputs of a workload, so a test can hold
// "same seed, same inputs" without comparing megabytes.
func inputDigest(workloadName string, seed int64, sz sizes) (string, error) {
	h := sha256.New()
	switch workloadName {
	case "assess_cold", "assess_warm":
		docs, err := buildDocs(seed, sz)
		if err != nil {
			return "", err
		}
		for _, d := range docs {
			h.Write(d.json)
			profile, err := json.Marshal(d.profile)
			if err != nil {
				return "", err
			}
			h.Write(profile)
		}
	case "assess_population":
		doc, err := mediumDoc(seed, sz)
		if err != nil {
			return "", err
		}
		h.Write(doc)
		m, err := dataflow.Unmarshal(doc)
		if err != nil {
			return "", err
		}
		profiles, err := json.Marshal(populationProfiles(seed, 0, m))
		if err != nil {
			return "", err
		}
		h.Write(profiles)
	default:
		in := newIngestInputs(seed, sz.saturateUsers, sz.saturateUsers, 0)
		for k := 0; k < in.streamLen(); k++ {
			ev, err := json.Marshal(in.at(k))
			if err != nil {
				return "", err
			}
			h.Write(ev)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
