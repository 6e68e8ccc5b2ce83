package policy_test

import (
	"context"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/policy"
)

func surgeryLTS(t testing.TB) *core.PrivacyLTS {
	t.Helper()
	p, err := core.GenerateWithOptionsContext(context.Background(), casestudy.Surgery(), core.Options{PotentialReads: core.PotentialReadsOff})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

func mustPolicySet(t testing.TB, policies ...policy.ServicePolicy) *policy.PolicySet {
	t.Helper()
	set, err := policy.NewPolicySet(policies...)
	if err != nil {
		t.Fatalf("NewPolicySet: %v", err)
	}
	return set
}

func TestStatementValidate(t *testing.T) {
	good := policy.Statement{Actor: "doctor", Actions: []core.Action{core.ActionRead}, Fields: []string{"*"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid statement rejected: %v", err)
	}
	tests := []struct {
		name string
		s    policy.Statement
	}{
		{"empty actor", policy.Statement{Actions: []core.Action{core.ActionRead}, Fields: []string{"x"}}},
		{"no actions", policy.Statement{Actor: "a", Fields: []string{"x"}}},
		{"invalid action", policy.Statement{Actor: "a", Actions: []core.Action{core.Action(99)}, Fields: []string{"x"}}},
		{"no fields", policy.Statement{Actor: "a", Actions: []core.Action{core.ActionRead}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); err == nil {
				t.Error("invalid statement accepted")
			}
		})
	}
}

func TestServicePolicyPermits(t *testing.T) {
	p := policy.ServicePolicy{
		Service: "medical-service",
		Statements: []policy.Statement{
			{Actor: "doctor", Actions: []core.Action{core.ActionCollect, core.ActionCreate},
				Fields: []string{"name", "diagnosis"}, Purposes: []string{"consultation", "record consultation"}},
			{Actor: "nurse", Actions: []core.Action{core.ActionRead}, Fields: []string{"*"}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tests := []struct {
		actor   string
		action  core.Action
		field   string
		purpose string
		want    bool
	}{
		{"doctor", core.ActionCollect, "name", "consultation", true},
		{"doctor", core.ActionCollect, "name", "marketing", false},
		{"doctor", core.ActionRead, "name", "consultation", false},
		{"doctor", core.ActionCreate, "treatment", "record consultation", false},
		{"nurse", core.ActionRead, "treatment", "anything", true},
		{"nurse", core.ActionCreate, "treatment", "anything", false},
		{"admin", core.ActionRead, "name", "", false},
	}
	for _, tt := range tests {
		if got := p.Permits(tt.actor, tt.action, tt.field, tt.purpose); got != tt.want {
			t.Errorf("Permits(%s, %s, %s, %s) = %v, want %v", tt.actor, tt.action, tt.field, tt.purpose, got, tt.want)
		}
	}
	bad := policy.ServicePolicy{Service: " "}
	if err := bad.Validate(); err == nil {
		t.Error("policy without service accepted")
	}
	badStatement := policy.ServicePolicy{Service: "s", Statements: []policy.Statement{{}}}
	if err := badStatement.Validate(); err == nil {
		t.Error("policy with invalid statement accepted")
	}
}

func TestPolicySet(t *testing.T) {
	a := policy.ServicePolicy{Service: "a", Statements: []policy.Statement{
		{Actor: "x", Actions: []core.Action{core.ActionRead}, Fields: []string{"*"}}}}
	b := policy.ServicePolicy{Service: "b"}
	set, err := policy.NewPolicySet(a, b)
	if err != nil {
		t.Fatalf("NewPolicySet: %v", err)
	}
	if _, ok := set.Policy("a"); !ok {
		t.Error("Policy(a) missing")
	}
	if _, ok := set.Policy("ghost"); ok {
		t.Error("Policy(ghost) should fail")
	}
	if _, err := policy.NewPolicySet(a, a); err == nil {
		t.Error("duplicate service policy accepted")
	}
	if _, err := policy.NewPolicySet(policy.ServicePolicy{Service: "x", Statements: []policy.Statement{{}}}); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestCheckerCompliantWithDerivedPolicies(t *testing.T) {
	p := surgeryLTS(t)
	// Policies derived from the flows themselves must make the model
	// compliant — the system does exactly what it says it does.
	set := mustPolicySet(t,
		policy.PolicyFromModelFlows(p, casestudy.ServiceMedical),
		policy.PolicyFromModelFlows(p, casestudy.ServiceResearch),
	)
	report, err := policy.NewChecker(set).Check(p)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !report.Compliant {
		t.Fatalf("derived policies should be compliant; violations: %v", report.Violations)
	}
	if report.CheckedTransitions == 0 {
		t.Error("no transitions checked")
	}
}

func TestCheckerDetectsUncoveredBehaviour(t *testing.T) {
	p := surgeryLTS(t)
	// A policy that only covers the medical service leaves the research
	// service's flows uncovered.
	set := mustPolicySet(t, policy.PolicyFromModelFlows(p, casestudy.ServiceMedical))
	report, err := policy.NewChecker(set).Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if report.Compliant {
		t.Fatal("expected violations for the research service")
	}
	var researchViolation bool
	for _, v := range report.Violations {
		if v.Service == casestudy.ServiceResearch {
			researchViolation = true
			if v.String() == "" {
				t.Error("violation String() empty")
			}
			if !strings.Contains(v.Reason, "no stated privacy policy") {
				t.Errorf("unexpected reason: %s", v.Reason)
			}
		}
	}
	if !researchViolation {
		t.Error("no violation attributed to the research service")
	}

	// Tightening a statement creates a purpose-level violation.
	medical := policy.PolicyFromModelFlows(p, casestudy.ServiceMedical)
	for i := range medical.Statements {
		if medical.Statements[i].Actor == casestudy.ActorNurse {
			medical.Statements[i].Purposes = []string{"a different purpose"}
		}
	}
	research := policy.PolicyFromModelFlows(p, casestudy.ServiceResearch)
	report, err = policy.NewChecker(mustPolicySet(t, medical, research)).Check(p)
	if err != nil {
		t.Fatal(err)
	}
	var nurseViolation bool
	for _, v := range report.Violations {
		if v.Actor == casestudy.ActorNurse {
			nurseViolation = true
		}
	}
	if !nurseViolation {
		t.Error("expected a violation for the nurse's re-purposed read")
	}
}

func TestCheckerIncludePotential(t *testing.T) {
	// Potential reads, such as the administrator's, are no part of the
	// designed behaviour: Check skips them, so a model generated with them
	// stays compliant with the policies derived from its declared flows.
	full, err := core.Generate(casestudy.Surgery())
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats().PotentialTransitions == 0 {
		t.Fatal("the generated model has no potential reads to skip")
	}
	set := mustPolicySet(t,
		policy.PolicyFromModelFlows(full, casestudy.ServiceMedical),
		policy.PolicyFromModelFlows(full, casestudy.ServiceResearch),
	)
	report, err := policy.NewChecker(set).Check(full)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Compliant {
		t.Fatalf("declared flows should be compliant, got %v", report.Violations)
	}
}

func TestCheckerErrors(t *testing.T) {
	set := mustPolicySet(t)
	if _, err := policy.NewChecker(set).Check(nil); err == nil {
		t.Error("nil LTS accepted")
	}
	if _, err := (&policy.Checker{}).Check(surgeryLTS(t)); err == nil {
		t.Error("checker without policies accepted")
	}
}

func TestPolicyFromModelFlows(t *testing.T) {
	p := surgeryLTS(t)
	medical := policy.PolicyFromModelFlows(p, casestudy.ServiceMedical)
	if medical.Service != casestudy.ServiceMedical {
		t.Errorf("service = %q", medical.Service)
	}
	if len(medical.Statements) == 0 {
		t.Fatal("no statements derived")
	}
	// Every statement belongs to an actor of the medical service.
	actors := map[string]bool{
		casestudy.ActorReceptionist: true,
		casestudy.ActorDoctor:       true,
		casestudy.ActorNurse:        true,
	}
	for _, s := range medical.Statements {
		if !actors[s.Actor] {
			t.Errorf("unexpected actor %q in derived medical policy", s.Actor)
		}
	}
	// Deriving twice is deterministic.
	again := policy.PolicyFromModelFlows(p, casestudy.ServiceMedical)
	if len(again.Statements) != len(medical.Statements) {
		t.Error("derivation not deterministic")
	}
}
