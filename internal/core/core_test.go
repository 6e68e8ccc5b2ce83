package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/lts"
	"privascope/internal/schema"
)

// clinicModel builds a compact two-service model exercised by the tests in
// this package: a care service (collect -> create -> read) and a research
// service (read -> anon -> read), with an administrator who has maintenance
// read access to the EHR but takes part in no flow.
func clinicModel(t testing.TB) *dataflow.Model {
	t.Helper()
	ehrSchema := schema.MustSchema("ehr",
		schema.Field{Name: "name", Category: schema.CategoryIdentifier},
		schema.Field{Name: "diagnosis", Category: schema.CategorySensitive},
		schema.Field{Name: "treatment", Category: schema.CategorySensitive},
	)
	anonSchema := schema.MustSchema("anon_ehr",
		schema.Field{Name: "diagnosis_anon", Category: schema.CategorySensitive, Pseudonymised: true},
	)
	acl := accesscontrol.MustACL(
		accesscontrol.Grant{Actor: "doctor", Datastore: "ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead, accesscontrol.PermissionWrite}},
		accesscontrol.Grant{Actor: "nurse", Datastore: "ehr", Fields: []string{"name", "treatment"},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}},
		accesscontrol.Grant{Actor: "admin", Datastore: "ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}, Reason: "maintenance"},
		accesscontrol.Grant{Actor: "analyst", Datastore: "anon_ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionRead}},
		accesscontrol.Grant{Actor: "doctor", Datastore: "anon_ehr", Fields: []string{accesscontrol.AllFields},
			Permissions: []accesscontrol.Permission{accesscontrol.PermissionWrite}},
	)

	b := dataflow.NewBuilder("clinic", dataflow.Actor{ID: "patient", Name: "Patient"})
	b.AddActors(
		dataflow.Actor{ID: "doctor", Name: "Doctor"},
		dataflow.Actor{ID: "nurse", Name: "Nurse"},
		dataflow.Actor{ID: "admin", Name: "Administrator"},
		dataflow.Actor{ID: "analyst", Name: "Analyst"},
	)
	b.AddDatastore(schema.Datastore{ID: "ehr", Name: "EHR", Schema: ehrSchema})
	b.AddDatastore(schema.Datastore{ID: "anon_ehr", Name: "Anonymised EHR", Schema: anonSchema, Anonymised: true})
	b.AddService(dataflow.Service{ID: "care", Name: "Care Service"})
	b.AddService(dataflow.Service{ID: "research", Name: "Research Service"})

	b.Flow("care", "patient", "doctor", []string{"name", "diagnosis"}, "consultation")
	b.AuthoredFlow("care", "doctor", "ehr", []string{"name", "diagnosis", "treatment"}, []string{"treatment"}, "record")
	b.Flow("care", "ehr", "nurse", []string{"name", "treatment"}, "administer treatment")

	b.Flow("research", "doctor", "anon_ehr", []string{"diagnosis"}, "anonymise")
	b.Flow("research", "anon_ehr", "analyst", []string{"diagnosis_anon"}, "analysis")

	b.WithPolicy(acl)
	return b.MustBuild()
}

func generateClinic(t testing.TB, opts Options) *PrivacyLTS {
	t.Helper()
	p, err := GenerateWithOptions(clinicModel(t), opts)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

func TestVarKindString(t *testing.T) {
	if HasIdentified.String() != "has" || CouldIdentify.String() != "could" {
		t.Error("VarKind.String() wrong")
	}
	if got := VarKind(5).String(); got != "varkind(5)" {
		t.Errorf("VarKind(5).String() = %q", got)
	}
}

func TestVariableString(t *testing.T) {
	v := Variable{Actor: "admin", Field: "diagnosis", Kind: CouldIdentify}
	if got := v.String(); got != "could(admin, diagnosis)" {
		t.Errorf("Variable.String() = %q", got)
	}
}

func TestVocabularyIndexing(t *testing.T) {
	v := NewVocabulary([]string{"b", "a"}, []string{"y", "x"})
	if got := v.NumVariables(); got != 8 {
		t.Errorf("NumVariables() = %d, want 8", got)
	}
	if !v.HasActor("a") || v.HasActor("zz") {
		t.Error("HasActor misbehaves")
	}
	if !v.HasField("x") || v.HasField("zz") {
		t.Error("HasField misbehaves")
	}
	// Every (actor, field, kind) combination maps to a unique bit that round
	// trips through Variable().
	seen := make(map[int]bool)
	for _, actor := range v.Actors() {
		for _, field := range v.Fields() {
			for _, kind := range []VarKind{HasIdentified, CouldIdentify} {
				bit := v.index(actor, field, kind)
				if bit < 0 || bit >= v.NumVariables() {
					t.Fatalf("index(%s,%s,%s) = %d out of range", actor, field, kind, bit)
				}
				if seen[bit] {
					t.Fatalf("bit %d assigned twice", bit)
				}
				seen[bit] = true
				back, ok := v.Variable(bit)
				if !ok || back.Actor != actor || back.Field != field || back.Kind != kind {
					t.Fatalf("Variable(%d) = %+v, want (%s,%s,%s)", bit, back, actor, field, kind)
				}
			}
		}
	}
	if _, ok := v.Variable(-1); ok {
		t.Error("Variable(-1) should fail")
	}
	if _, ok := v.Variable(v.NumVariables()); ok {
		t.Error("Variable(out of range) should fail")
	}
}

func TestVocabularyPaperStateVariableCount(t *testing.T) {
	// The paper's example: 5 actors and 6 fields give 2*5*6 = 60 state
	// variables (Section II-B).
	v := NewVocabulary(
		[]string{"receptionist", "doctor", "nurse", "administrator", "researcher"},
		[]string{"name", "dob", "appointment", "medical_issues", "diagnosis", "treatment"},
	)
	if got := v.NumVariables(); got != 60 {
		t.Errorf("NumVariables() = %d, want 60", got)
	}
}

func TestStateVectorBasics(t *testing.T) {
	v := NewVocabulary([]string{"a1", "a2"}, []string{"f1", "f2"})
	vec := v.NewVector()
	if !vec.IsZero() {
		t.Error("new vector should be the absolute privacy state")
	}
	vec.Set("a1", "f1", HasIdentified)
	vec.Set("a2", "f2", CouldIdentify)
	if !vec.Has("a1", "f1") || vec.Has("a1", "f2") {
		t.Error("Has misbehaves")
	}
	if !vec.Could("a2", "f2") || vec.Could("a1", "f1") {
		t.Error("Could misbehaves")
	}
	if vec.CountTrue() != 2 {
		t.Errorf("CountTrue() = %d", vec.CountTrue())
	}
	vec.Clear("a1", "f1", HasIdentified)
	if vec.Has("a1", "f1") {
		t.Error("Clear did not clear")
	}
	// Unknown actors/fields are ignored.
	vec.Set("ghost", "f1", HasIdentified)
	if vec.CountTrue() != 1 {
		t.Error("setting unknown actor should be a no-op")
	}
	if vec.Get("ghost", "f1", HasIdentified) {
		t.Error("unknown actor should read false")
	}
}

func TestStateVectorCloneEqualKey(t *testing.T) {
	v := NewVocabulary([]string{"a"}, []string{"f", "g"})
	vec := v.NewVector()
	vec.Set("a", "f", HasIdentified)
	clone := vec.Clone()
	if !vec.Equal(clone) {
		t.Error("clone should equal original")
	}
	clone.Set("a", "g", HasIdentified)
	if vec.Equal(clone) {
		t.Error("mutating the clone must not affect the original")
	}
	if vec.Key() == clone.Key() {
		t.Error("different vectors must have different keys")
	}
	other := NewVocabulary([]string{"a"}, []string{"f", "g"}).NewVector()
	other.Set("a", "f", HasIdentified)
	if vec.Equal(other) {
		t.Error("vectors from different vocabularies must not compare equal")
	}
}

func TestStateVectorNewlyTrueAndString(t *testing.T) {
	v := NewVocabulary([]string{"a"}, []string{"f", "g"})
	before := v.NewVector()
	before.Set("a", "f", HasIdentified)
	after := before.Clone()
	after.Set("a", "g", CouldIdentify)
	newly := after.NewlyTrue(before)
	if len(newly) != 1 || newly[0].Field != "g" || newly[0].Kind != CouldIdentify {
		t.Errorf("NewlyTrue = %v", newly)
	}
	if got := v.NewVector().String(); got != "{}" {
		t.Errorf("zero vector String() = %q", got)
	}
	if !strings.Contains(after.String(), "has(a, f)") {
		t.Errorf("String() = %q", after.String())
	}
}

func TestActionParsing(t *testing.T) {
	for _, a := range []Action{ActionCollect, ActionCreate, ActionRead, ActionDisclose, ActionAnon, ActionDelete} {
		if !a.Valid() {
			t.Errorf("%v should be valid", a)
		}
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if Action(0).Valid() {
		t.Error("zero action should be invalid")
	}
	if _, err := ParseAction("explode"); err == nil {
		t.Error("ParseAction(explode) should fail")
	}
	if got := Action(42).String(); got != "action(42)" {
		t.Errorf("Action(42).String() = %q", got)
	}
}

func TestTransitionLabelString(t *testing.T) {
	label := NewTransitionLabel(ActionRead, "nurse", []string{"treatment", "name"})
	label.Datastore = "ehr"
	label.Purpose = "administer treatment"
	want := "read(name, treatment) by nurse on ehr [administer treatment]"
	if got := label.LabelString(); got != want {
		t.Errorf("LabelString() = %q, want %q", got, want)
	}
	pot := NewTransitionLabel(ActionRead, "admin", []string{"diagnosis"})
	pot.Datastore = "ehr"
	pot.Potential = true
	if got := pot.LabelString(); got != "?read(diagnosis) by admin on ehr" {
		t.Errorf("potential LabelString() = %q", got)
	}
}

func TestLabelOf(t *testing.T) {
	label := NewTransitionLabel(ActionCollect, "doctor", []string{"name"})
	tr := lts.Transition{From: "s0", To: "s1", Label: label}
	if LabelOf(tr) != label {
		t.Error("LabelOf should return the original label")
	}
	other := lts.Transition{From: "s0", To: "s1", Label: lts.StringLabel("x")}
	if LabelOf(other) != nil {
		t.Error("LabelOf on foreign label should return nil")
	}
}

func TestGenerateNilAndInvalidModel(t *testing.T) {
	if _, err := Generate(nil); err == nil {
		t.Error("Generate(nil) should fail")
	}
	bad := &dataflow.Model{Name: "x"}
	if _, err := Generate(bad); err == nil {
		t.Error("Generate(invalid) should fail")
	}
}

func TestGenerateClinicSequential(t *testing.T) {
	p := generateClinic(t, Options{})
	stats := p.Stats()
	if stats.States == 0 || stats.Transitions == 0 {
		t.Fatalf("empty LTS: %+v", stats)
	}
	// 5 actors excluding the patient? The clinic has 4 actors and 4 fields
	// (name, diagnosis, treatment, diagnosis_anon) -> 32 state variables.
	if stats.StateVariables != 2*4*4 {
		t.Errorf("StateVariables = %d, want 32", stats.StateVariables)
	}
	// The initial state is the absolute privacy state.
	initVec, ok := p.Vector(p.InitialState())
	if !ok || !initVec.IsZero() {
		t.Errorf("initial vector = %v, ok=%v", initVec, ok)
	}
	// No warnings: the declared flows all match the policy.
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	// Every state is reachable.
	unreach, err := p.Graph.UnreachableStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(unreach) != 0 {
		t.Errorf("unreachable states: %v", unreach)
	}
}

func TestGenerateExtractionRules(t *testing.T) {
	p := generateClinic(t, Options{PotentialReads: PotentialReadsOff})
	actions := make(map[Action]int)
	for _, tr := range p.Graph.Transitions() {
		label := LabelOf(tr)
		if label == nil {
			t.Fatalf("transition %v has no TransitionLabel", tr)
		}
		actions[label.Action]++
		switch label.Action {
		case ActionCollect:
			if label.Actor != "doctor" {
				t.Errorf("collect actor = %q", label.Actor)
			}
		case ActionAnon:
			if label.Datastore != "anon_ehr" {
				t.Errorf("anon datastore = %q", label.Datastore)
			}
			// anon transitions carry the pseudonymised field names.
			if label.Fields[0] != "diagnosis_anon" {
				t.Errorf("anon fields = %v", label.Fields)
			}
		}
	}
	for _, a := range []Action{ActionCollect, ActionCreate, ActionRead, ActionAnon} {
		if actions[a] == 0 {
			t.Errorf("no %s transition generated", a)
		}
	}
	if actions[ActionDisclose] != 0 {
		t.Errorf("unexpected disclose transitions: %d", actions[ActionDisclose])
	}
}

func TestGenerateStateVariableSemantics(t *testing.T) {
	p := generateClinic(t, Options{PotentialReads: PotentialReadsOff})

	// After the care service completes, the nurse must have identified the
	// treatment field, and the administrator could identify the diagnosis
	// (maintenance read access to the EHR) without having identified it.
	finals := p.FindStates(func(v StateVector) bool {
		return v.Has("nurse", "treatment")
	})
	if len(finals) == 0 {
		t.Fatal("no state where the nurse has identified the treatment")
	}
	for _, id := range finals {
		if !p.Could(id, "admin", "diagnosis") {
			t.Errorf("state %s: admin should COULD-identify diagnosis via EHR access", id)
		}
		if p.Has(id, "admin", "diagnosis") {
			t.Errorf("state %s: admin must not HAVE identified diagnosis (no flow reads it)", id)
		}
		if !p.Has(id, "doctor", "diagnosis") {
			t.Errorf("state %s: doctor should have identified diagnosis", id)
		}
	}

	// The nurse can never identify the diagnosis anywhere in the model: the
	// policy only grants them name and treatment.
	ok, counter, err := p.Graph.Always(func(id lts.StateID) bool {
		return !p.Could(id, "nurse", "diagnosis")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("nurse could identify diagnosis; counter-example:\n%s", counter)
	}
}

func TestGeneratePotentialReads(t *testing.T) {
	p := generateClinic(t, Options{PotentialReads: PotentialReadsTerminal})
	potentials := p.PotentialTransitions()
	if len(potentials) == 0 {
		t.Fatal("expected potential read transitions")
	}
	var adminRead bool
	for _, tr := range potentials {
		label := LabelOf(tr)
		if label.Action != ActionRead || !label.Potential {
			t.Errorf("potential transition with unexpected label %q", label.LabelString())
		}
		if label.Actor == "admin" && label.Datastore == "ehr" {
			adminRead = true
			// Taking the potential read flips the admin's HAS variables.
			for _, f := range label.Fields {
				if !p.Has(tr.To, "admin", f) {
					t.Errorf("after potential read, admin should have %s", f)
				}
				if p.Has(tr.From, "admin", f) {
					t.Errorf("before potential read, admin should not have %s", f)
				}
			}
		}
	}
	if !adminRead {
		t.Error("no potential read by the administrator on the EHR was generated")
	}

	// With potential reads off, none are generated.
	off := generateClinic(t, Options{PotentialReads: PotentialReadsOff})
	if n := len(off.PotentialTransitions()); n != 0 {
		t.Errorf("PotentialReadsOff still produced %d potential transitions", n)
	}

	// Terminal mode produces no outgoing declared transitions from
	// potential-read targets beyond what full mode would also have; full mode
	// explores at least as many states.
	full := generateClinic(t, Options{PotentialReads: PotentialReadsFull})
	if full.Stats().States < p.Stats().States {
		t.Errorf("full exploration has fewer states (%d) than terminal (%d)",
			full.Stats().States, p.Stats().States)
	}
}

func TestGenerateDataDrivenOrdering(t *testing.T) {
	seq := generateClinic(t, Options{FlowOrdering: OrderSequential, PotentialReads: PotentialReadsOff})
	dd := generateClinic(t, Options{FlowOrdering: OrderDataDriven, PotentialReads: PotentialReadsOff})
	// Data-driven ordering allows at least as many interleavings.
	if dd.Stats().States < seq.Stats().States {
		t.Errorf("data-driven states (%d) < sequential states (%d)", dd.Stats().States, seq.Stats().States)
	}
	// Both reach a state where the analyst has the anonymised diagnosis.
	for name, p := range map[string]*PrivacyLTS{"sequential": seq, "data-driven": dd} {
		states := p.FindStates(func(v StateVector) bool { return v.Has("analyst", "diagnosis_anon") })
		if len(states) == 0 {
			t.Errorf("%s: analyst never receives the anonymised diagnosis", name)
		}
	}
}

func TestGenerateDeleteFlow(t *testing.T) {
	// Extend the clinic with an erasure service: the admin deletes the
	// diagnosis from the EHR.
	m := clinicModel(t)
	m.Services = append(m.Services, dataflow.Service{ID: "erasure", Name: "Erasure Service"})
	m.Flows = append(m.Flows, dataflow.Flow{
		Service: "erasure", Order: 1, From: "admin", To: "ehr",
		Fields: []string{"diagnosis"}, Purpose: "right to be forgotten", Delete: true,
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := GenerateWithOptions(m, Options{PotentialReads: PotentialReadsOff})
	if err != nil {
		t.Fatal(err)
	}
	// Find a delete transition and check the store no longer holds the field
	// afterwards, and that the admin's COULD variable is gone.
	var found bool
	for _, tr := range p.Graph.Transitions() {
		label := LabelOf(tr)
		if label.Action != ActionDelete {
			continue
		}
		found = true
		if p.StoreContents(tr.To, "ehr").Contains("diagnosis") {
			t.Error("diagnosis still in EHR after delete")
		}
		if !p.StoreContents(tr.From, "ehr").Contains("diagnosis") {
			t.Error("diagnosis not in EHR before delete")
		}
		if p.Could(tr.To, "admin", "diagnosis") {
			t.Error("admin could still identify diagnosis after deletion")
		}
	}
	if !found {
		t.Fatal("no delete transition generated")
	}
	// The generator warns because the admin lacks the delete permission.
	var warned bool
	for _, w := range p.Warnings {
		if strings.Contains(w, "delete permission") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("expected a policy-consistency warning, got %v", p.Warnings)
	}
}

func TestGenerateMaxStates(t *testing.T) {
	_, err := GenerateWithOptions(clinicModel(t), Options{MaxStates: 2})
	if err == nil || !strings.Contains(err.Error(), "state space") {
		t.Errorf("expected state-space error, got %v", err)
	}
}

func TestPrivacyLTSQueries(t *testing.T) {
	p := generateClinic(t, Options{PotentialReads: PotentialReadsOff})
	finals := p.FindStates(func(v StateVector) bool { return v.Has("nurse", "treatment") })
	if len(finals) == 0 {
		t.Fatal("no final care state")
	}
	id := finals[0]
	who := p.ActorsWhoCould(id, "diagnosis")
	if len(who) == 0 {
		t.Fatal("ActorsWhoCould returned nothing")
	}
	wantSet := map[string]bool{"admin": true, "doctor": true}
	for _, a := range who {
		if !wantSet[a] {
			t.Errorf("unexpected actor %q could identify diagnosis", a)
		}
	}
	have := p.ActorsWhoHave(id, "diagnosis")
	if len(have) != 1 || have[0] != "doctor" {
		t.Errorf("ActorsWhoHave(diagnosis) = %v", have)
	}
	// ChangeOf on the first transition out of the initial state.
	out := p.Graph.Outgoing(p.InitialState())
	if len(out) == 0 {
		t.Fatal("no transitions from the initial state")
	}
	change := p.ChangeOf(out[0])
	if len(change) == 0 {
		t.Error("first transition should change some state variables")
	}
	// Vector of an unknown state.
	if _, ok := p.Vector("ghost"); ok {
		t.Error("Vector(ghost) should fail")
	}
	if p.Has("ghost", "doctor", "name") || p.Could("ghost", "doctor", "name") {
		t.Error("queries on unknown states should be false")
	}
	if p.ActorsWhoCould("ghost", "name") != nil || p.ActorsWhoHave("ghost", "name") != nil {
		t.Error("ActorsWhoCould/ActorsWhoHave on unknown state should be nil")
	}
	if p.StoreMap("ghost") != nil || !p.StoreContents("ghost", "ehr").IsEmpty() {
		t.Error("store contents of an unknown state should be empty")
	}
	if p.ChangeOf(lts.Transition{From: p.InitialState(), To: "ghost"}) != nil ||
		p.ChangeOf(lts.Transition{From: "ghost", To: p.InitialState()}) != nil {
		t.Error("ChangeOf with an unknown endpoint should be nil")
	}
}

func TestPrivacyLTSDOT(t *testing.T) {
	p := generateClinic(t, Options{})
	out := p.DOT(DOTOptions{Name: "clinic_lts"})
	if !strings.Contains(out, "digraph clinic_lts {") {
		t.Error("missing graph header")
	}
	if !strings.Contains(out, `style="dashed"`) {
		t.Error("potential reads should render dashed")
	}
	verbose := p.DOT(DOTOptions{VerboseStates: true, HighlightStates: map[lts.StateID]string{"s1": "lightpink"}})
	if !strings.Contains(verbose, "has(") {
		t.Error("verbose states should list variables")
	}
	if !strings.Contains(verbose, `fillcolor="lightpink"`) {
		t.Error("highlighted state not coloured")
	}
}

func TestPrivacyLTSMarshalJSON(t *testing.T) {
	p := generateClinic(t, Options{})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, key := range []string{"model", "initial", "actors", "fields", "states", "transitions"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
}

func TestDeclaredVsPotentialPartition(t *testing.T) {
	p := generateClinic(t, Options{})
	total := p.Graph.TransitionCount()
	if got := len(p.DeclaredTransitions()) + len(p.PotentialTransitions()); got != total {
		t.Errorf("declared+potential = %d, want %d", got, total)
	}
	// Both are the matching transitions of Graph.Transitions, in its order.
	var declared, potential []lts.Transition
	for _, tr := range p.Graph.Transitions() {
		if LabelOf(tr).Potential {
			potential = append(potential, tr)
		} else {
			declared = append(declared, tr)
		}
	}
	if !reflect.DeepEqual(p.DeclaredTransitions(), declared) || !reflect.DeepEqual(p.PotentialTransitions(), potential) {
		t.Error("declared/potential transitions are not the filtered transition list in insertion order")
	}
	if got := p.Stats().PotentialTransitions; got != len(potential) || got == 0 {
		t.Errorf("Stats().PotentialTransitions = %d, want %d", got, len(potential))
	}
}
