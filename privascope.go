// Package privascope is a model-driven toolkit for identifying privacy risks
// in distributed data services. It reproduces, as a reusable Go library, the
// approach of Grace et al., "Identifying Privacy Risks in Distributed Data
// Services: A Model-Driven Approach" (ICDCS 2018):
//
//  1. Developers describe their system as a purpose-driven data-flow model —
//     actors, datastores with schemas, services made of ordered flows — plus
//     an access-control policy (an ACL, or RBAC roles expanded to one).
//  2. The toolkit automatically generates a formal model of user privacy: a
//     Labelled Transition System whose states carry, for every (actor,
//     field) pair, whether the actor HAS identified or COULD identify the
//     field, and whose transitions are the paper's six actions on personal
//     data (collect, create, read, disclose, anon, delete). Generation is a
//     parallel, memory-compact state-space exploration: states are encoded
//     as fixed-width bit vectors resolved against an open-addressing state
//     table, and a configurable worker pool (GenerateOptions.Workers, one
//     worker per CPU by default) expands the BFS frontier with deterministic
//     merging, so the generated model is byte-identical for any worker
//     count. See docs/ARCHITECTURE.md for the engine design.
//  3. Automated analyses run over the generated model: unwanted-disclosure
//     risk per user profile (impact × likelihood through a risk matrix),
//     pseudonymisation value risk against a dataset (the k-anonymity value
//     risk of the paper's Table I / Fig. 4), and compliance of the modelled
//     behaviour with the services' stated privacy policies.
//  4. The same model monitors the running system: the runtime monitor maps
//     live datastore events onto the LTS and raises alerts when risky or
//     unmodelled behaviour is observed.
//
// This package is the stable public facade: it re-exports the types of the
// internal packages under one roof and offers one-call pipelines for the
// common workflows. The internal packages remain importable within this
// module for fine-grained control; see the package documentation of
// internal/core, internal/risk, internal/pseudorisk and internal/runtime.
//
// The API is context-first: every potentially long-running entry point has a
// ...Context form (GenerateContext, AssessContext,
// AnalyzeDisclosurePopulationContext, AnalyzePseudonymisationContext,
// Monitor.RegisterUserContext, ...) whose worker pools observe cancellation
// at chunk boundaries, return ctx.Err() promptly and never leak goroutines;
// the context-free names remain as thin context.Background() wrappers. The
// value-risk types' methods (ValueRiskEvaluator.Evaluate and
// EvaluateProgression, DataClassIndex.Classes) take the context directly. For
// the paper's generate-once/analyse-many workflow, hold a long-lived Engine:
// it caches generated privacy models by content fingerprint and shares risk
// analyses across same-shaped profiles, safely across goroutines.
//
// # Quick start
//
//	model := privascope.NewModelBuilder("clinic", privascope.Actor{ID: "patient", Name: "Patient"}).
//		AddActor(privascope.Actor{ID: "doctor", Name: "Doctor"}).
//		// ... datastores, services, flows ...
//		Build()
//
//	engine, err := privascope.NewEngine(privascope.EngineOptions{})
//	// per user/request; the privacy LTS is generated once and cached:
//	result, err := engine.Assess(ctx, model, profile)
//	fmt.Println(result.Report.Render())
//
// The package's Example functions are complete, checked walkthroughs,
// including the paper's two case studies (go test -run '^Example' -v .).
package privascope

import (
	"context"
	"fmt"

	"privascope/internal/accesscontrol"
	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/policy"
	"privascope/internal/pseudorisk"
	"privascope/internal/report"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/schema"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// ---------------------------------------------------------------------------
// Modelling (data-flow models, schemas, access control).
// ---------------------------------------------------------------------------

// Modelling types re-exported from the internal packages.
type (
	// Model is a data-flow model of a privacy-aware system.
	Model = dataflow.Model
	// ModelBuilder assembles a Model incrementally.
	ModelBuilder = dataflow.Builder
	// Actor is an individual or role type handling personal data.
	Actor = dataflow.Actor
	// Flow is one data-flow arrow (fields, purpose, order).
	Flow = dataflow.Flow
	// Service is a business process composed of ordered flows.
	Service = dataflow.Service

	// Schema describes the record layout of a datastore.
	Schema = schema.Schema
	// Field is one personal-data field of a schema.
	Field = schema.Field
	// Datastore is a persistent store of personal data.
	Datastore = schema.Datastore
	// FieldCategory classifies a field's identification role.
	FieldCategory = schema.Category

	// AccessPolicy is a model's access-control policy; *ACL is its only
	// implementation.
	AccessPolicy = accesscontrol.Policy
	// ACL is an access-control-list policy.
	ACL = accesscontrol.ACL
	// RBAC writes a policy as roles; RBAC.ACL expands it into the ACL a
	// model carries.
	RBAC = accesscontrol.RBAC
	// Role is a named bundle of grants for an RBAC policy.
	Role = accesscontrol.Role
	// Grant is a single access-control grant.
	Grant = accesscontrol.Grant
	// Permission is the kind of access requested on a field.
	Permission = accesscontrol.Permission
)

// Field categories.
const (
	CategoryStandard        = schema.CategoryStandard
	CategoryIdentifier      = schema.CategoryIdentifier
	CategoryQuasiIdentifier = schema.CategoryQuasiIdentifier
	CategorySensitive       = schema.CategorySensitive
)

// Permissions.
const (
	PermissionRead   = accesscontrol.PermissionRead
	PermissionWrite  = accesscontrol.PermissionWrite
	PermissionDelete = accesscontrol.PermissionDelete
	// AllFields is the wildcard field name in grants.
	AllFields = accesscontrol.AllFields
)

// NewModelBuilder starts a data-flow model for the named system and data
// subject.
func NewModelBuilder(name string, user Actor) *ModelBuilder {
	return dataflow.NewBuilder(name, user)
}

// NewACL builds an access-control-list policy from grants.
func NewACL(grants ...Grant) (*ACL, error) { return accesscontrol.NewACL(grants...) }

// NewRBAC returns an empty role-based access-control policy.
func NewRBAC() *RBAC { return accesscontrol.NewRBAC() }

// LoadModel reads a model document (with its ACL) from a JSON file.
func LoadModel(path string) (*Model, error) { return dataflow.Load(path) }

// SaveModel writes a model document (with its ACL) to a JSON file.
func SaveModel(m *Model, path string) error { return dataflow.Save(m, path) }

// ---------------------------------------------------------------------------
// Privacy-model generation (the paper's Section II-B).
// ---------------------------------------------------------------------------

// Generation types re-exported from internal/core.
type (
	// PrivacyModel is the generated formal model of user privacy (an LTS
	// with privacy state vectors).
	PrivacyModel = core.PrivacyLTS
	// GenerateOptions configures LTS generation: flow ordering, potential
	// reads, the state cap, and the number of parallel exploration workers.
	GenerateOptions = core.Options
	// ExploreOptions selects the exploration strategy (GenerateOptions.Explore):
	// symmetry-reduced exploration visits one canonical representative per
	// orbit of interchangeable actors and expands back to the identical LTS.
	ExploreOptions = core.ExploreOptions
	// Action is one of the six actions on personal data.
	Action = core.Action
	// StateVector is the set of Boolean state variables of a privacy state.
	StateVector = core.StateVector
	// TransitionLabel is the label attached to every generated transition.
	TransitionLabel = core.TransitionLabel
)

// Actions on personal data.
const (
	ActionCollect  = core.ActionCollect
	ActionCreate   = core.ActionCreate
	ActionRead     = core.ActionRead
	ActionDisclose = core.ActionDisclose
	ActionAnon     = core.ActionAnon
	ActionDelete   = core.ActionDelete
)

// Flow orderings and potential-read modes for GenerateOptions.
const (
	OrderSequential        = core.OrderSequential
	OrderDataDriven        = core.OrderDataDriven
	PotentialReadsOff      = core.PotentialReadsOff
	PotentialReadsTerminal = core.PotentialReadsTerminal
	PotentialReadsFull     = core.PotentialReadsFull
)

// Generate builds the privacy LTS for a model with default options.
func Generate(m *Model) (*PrivacyModel, error) { return core.Generate(m) }

// GenerateWithOptions builds the privacy LTS with explicit options.
func GenerateWithOptions(m *Model, opts GenerateOptions) (*PrivacyModel, error) {
	return core.GenerateWithOptionsContext(context.Background(), m, opts)
}

// GenerateContext builds the privacy LTS with default options, honouring
// cancellation and deadlines carried by ctx: the parallel BFS polls ctx at
// state granularity and aborts mid-exploration with ctx.Err(), leaking no
// goroutines.
func GenerateContext(ctx context.Context, m *Model) (*PrivacyModel, error) {
	return core.GenerateWithOptionsContext(ctx, m, GenerateOptions{})
}

// GenerateWithOptionsContext is GenerateWithOptions with cancellation; see
// GenerateContext.
func GenerateWithOptionsContext(ctx context.Context, m *Model, opts GenerateOptions) (*PrivacyModel, error) {
	return core.GenerateWithOptionsContext(ctx, m, opts)
}

// ---------------------------------------------------------------------------
// Unwanted-disclosure risk analysis (Section III-A).
// ---------------------------------------------------------------------------

// Risk-analysis types re-exported from internal/risk.
type (
	// UserProfile captures a user's consented services and field
	// sensitivities.
	UserProfile = risk.UserProfile
	// RiskLevel is a qualitative risk category (none/low/medium/high).
	RiskLevel = risk.Level
	// RiskMatrix buckets impact and likelihood and maps them to risk.
	RiskMatrix = risk.Matrix
	// RiskConfig configures the disclosure-risk analyzer.
	RiskConfig = risk.Config
	// RiskFinding is one assessed disclosure event.
	RiskFinding = risk.Finding
	// RiskAssessment is the per-user analysis result.
	RiskAssessment = risk.Assessment
	// RiskChange is a before/after comparison entry.
	RiskChange = risk.Change
)

// Risk levels and canonical sensitivities.
const (
	RiskNone   = risk.LevelNone
	RiskLow    = risk.LevelLow
	RiskMedium = risk.LevelMedium
	RiskHigh   = risk.LevelHigh

	SensitivityLow    = risk.SensitivityLow
	SensitivityMedium = risk.SensitivityMedium
	SensitivityHigh   = risk.SensitivityHigh
)

// AnalyzeDisclosure assesses a user profile against a generated privacy
// model using the given configuration (zero value for defaults).
func AnalyzeDisclosure(p *PrivacyModel, profile UserProfile, cfg RiskConfig) (*RiskAssessment, error) {
	return AnalyzeDisclosureContext(context.Background(), p, profile, cfg)
}

// AnalyzeDisclosureContext is AnalyzeDisclosure with cancellation: the
// analysis polls ctx while walking the model's transitions and aborts with
// ctx.Err() when the caller cancels or the deadline passes.
func AnalyzeDisclosureContext(ctx context.Context, p *PrivacyModel, profile UserProfile, cfg RiskConfig) (*RiskAssessment, error) {
	analyzer, err := risk.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	return analyzer.AnalyzeContext(ctx, p, profile)
}

// CompareAssessments reports how per-event risk levels changed between two
// assessments (for example before and after an access-policy mitigation).
func CompareAssessments(before, after *RiskAssessment) []RiskChange {
	return risk.Compare(before, after)
}

// PopulationAssessment aggregates per-user assessments over a population of
// (real or simulated) users.
type PopulationAssessment = risk.PopulationAssessment

// AnalyzeDisclosurePopulation assesses every profile against the privacy
// model and aggregates the results ("there is an instance for each user").
func AnalyzeDisclosurePopulation(p *PrivacyModel, profiles []UserProfile, cfg RiskConfig) (*PopulationAssessment, error) {
	return AnalyzeDisclosurePopulationContext(context.Background(), p, profiles, cfg)
}

// AnalyzeDisclosurePopulationContext is AnalyzeDisclosurePopulation with
// cancellation: ctx is polled between profiles and inside each underlying
// analysis, so a million-user scan aborts promptly with ctx.Err().
func AnalyzeDisclosurePopulationContext(ctx context.Context, p *PrivacyModel, profiles []UserProfile, cfg RiskConfig) (*PopulationAssessment, error) {
	analyzer, err := risk.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	return analyzer.AnalyzePopulationContext(ctx, p, profiles)
}

// ---------------------------------------------------------------------------
// Pseudonymisation (value) risk analysis (Section III-B).
// ---------------------------------------------------------------------------

// Pseudonymisation-risk types re-exported from internal/pseudorisk and
// internal/anonymize.
type (
	// DataTable is an in-memory record table.
	DataTable = anonymize.Table
	// DataColumn describes one column of a DataTable.
	DataColumn = anonymize.Column
	// DataValue is one table cell.
	DataValue = anonymize.Value
	// ViolationPolicy is the policy value risks are checked against.
	ViolationPolicy = pseudorisk.Policy
	// ValueRiskEvaluator evaluates value risks for one dataset and policy.
	ValueRiskEvaluator = pseudorisk.Evaluator
	// ValueRiskScenario is the outcome for one visible-field set.
	ValueRiskScenario = pseudorisk.ScenarioResult
	// PseudonymisationAnnotation layers value risk onto a privacy model.
	PseudonymisationAnnotation = pseudorisk.Annotation
	// DataClassIndex caches a table's equivalence-class partitions across
	// scenarios and attacker models.
	DataClassIndex = anonymize.ClassIndex
)

// NewValueRiskEvaluator builds an evaluator for a dataset and policy.
func NewValueRiskEvaluator(table *DataTable, p ViolationPolicy) (*ValueRiskEvaluator, error) {
	return pseudorisk.NewEvaluator(table, p)
}

// NewDataClassIndex builds an equivalence-class cache over a table.
func NewDataClassIndex(t *DataTable) *DataClassIndex {
	return anonymize.NewClassIndex(t)
}

// AnalyzePseudonymisation layers the value risks of a pseudonymised dataset
// onto the privacy model of m for one actor (the paper's Fig. 4): every
// state in which the actor holds the pseudonymised form of the policy's
// target field gets a risk transition, scored against table restricted to
// the pseudonymised fields the actor has read there. The model is generated
// from its declared flows alone, in data-driven order and without potential
// reads, so every set of pseudonymised fields the flows let the actor gather,
// in any order, is some state's; the annotation's LTS is that model. Table
// columns are named after the model's base fields (age for age_anon).
func AnalyzePseudonymisation(m *Model, actor string, policy ViolationPolicy, table *DataTable) (*PseudonymisationAnnotation, error) {
	return AnalyzePseudonymisationContext(context.Background(), m, actor, policy, table)
}

// AnalyzePseudonymisationContext is AnalyzePseudonymisation with
// cancellation: generation polls ctx, and so does the annotation between
// at-risk states and inside the dataset evaluations (class building every
// few thousand rows, scoring between equivalence sets), so a cancelled
// context aborts promptly with ctx.Err().
func AnalyzePseudonymisationContext(ctx context.Context, m *Model, actor string, policy ViolationPolicy, table *DataTable) (*PseudonymisationAnnotation, error) {
	p, err := core.GenerateWithOptionsContext(ctx, m, GenerateOptions{
		FlowOrdering:   OrderDataDriven,
		PotentialReads: PotentialReadsOff,
	})
	if err != nil {
		return nil, fmt.Errorf("privascope: generating privacy model: %w", err)
	}
	return pseudorisk.AnalyzeLTS(ctx, p, pseudorisk.Options{Actor: actor, Policy: policy, Table: table})
}

// KAnonymize produces a k-anonymous version of a table by generalisation and
// suppression of the given quasi-identifiers.
func KAnonymize(t *DataTable, quasiIdentifiers []string, k int) (*DataTable, anonymize.KAnonymizeResult, error) {
	return anonymize.KAnonymize(context.Background(), t, quasiIdentifiers, k)
}

// ReidentReport summarises the re-identification risk of a dataset under the
// prosecutor/journalist/marketer attacker models.
type ReidentReport = anonymize.ReidentReport

// ReidentificationRisk computes per-record re-identification risks for the
// dataset given the quasi-identifiers the adversary is assumed to know.
// Records whose risk is at least threshold are counted as at-risk.
func ReidentificationRisk(t *DataTable, quasiIdentifiers []string, threshold float64) (ReidentReport, error) {
	return anonymize.ReidentificationRisk(context.Background(), t, quasiIdentifiers, threshold)
}

// ---------------------------------------------------------------------------
// Policy compliance, runtime monitoring, reporting, synthetic inputs.
// ---------------------------------------------------------------------------

// Remaining re-exports.
type (
	// ServicePolicy is the stated privacy policy of one service.
	ServicePolicy = policy.ServicePolicy
	// PolicyStatement is one clause of a service policy.
	PolicyStatement = policy.Statement
	// ComplianceReport is the result of checking an LTS against policies.
	ComplianceReport = policy.ComplianceReport

	// Event is one operation on personal data observed in the running
	// system.
	Event = service.Event
	// EventLog numbers events and hands each to its sink before the
	// datastore that appended it answers.
	EventLog = service.Log
	// Cluster runs one HTTP datastore server per datastore of a model.
	Cluster = service.Cluster

	// Monitor tracks per-user privacy state against a privacy model.
	Monitor = runtime.Monitor
	// MonitorConfig configures a Monitor.
	MonitorConfig = runtime.Config
	// Alert is a notification raised by the monitor.
	Alert = runtime.Alert
	// MonitorIngestStats aggregates the counts of Monitor.IngestBatch, the
	// high-throughput ingestion path behind internal/cluster.
	MonitorIngestStats = runtime.IngestStats

	// Report is a renderable analysis report.
	Report = report.Report
)

// CheckCompliance verifies the modelled behaviour against the stated service
// policies.
func CheckCompliance(p *PrivacyModel, policies ...ServicePolicy) (*ComplianceReport, error) {
	set, err := policy.NewPolicySet(policies...)
	if err != nil {
		return nil, err
	}
	return policy.NewChecker(set).Check(p)
}

// DerivePolicy derives a service policy that exactly covers the declared
// flows of the service, as a reviewable starting point.
func DerivePolicy(p *PrivacyModel, serviceID string) ServicePolicy {
	return policy.PolicyFromModelFlows(p, serviceID)
}

// NewMonitor creates a runtime privacy monitor for a generated model.
func NewMonitor(p *PrivacyModel, cfg MonitorConfig) (*Monitor, error) {
	return runtime.NewMonitor(p, cfg)
}

// AssessmentCache deduplicates risk assessments across users with identical
// profile shapes; see risk.AssessmentCache.
type AssessmentCache = risk.AssessmentCache

// NewAssessmentCache wraps a disclosure-risk analyzer (nil for defaults)
// with a profile-fingerprint cache, so populations of same-shaped users are
// analysed once.
func NewAssessmentCache(cfg RiskConfig) (*AssessmentCache, error) {
	analyzer, err := risk.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	return risk.NewAssessmentCache(analyzer)
}

// StartCluster starts one HTTP datastore server per datastore of the model on
// local ports. Every operation's event reaches sink, in Seq order, before the
// datastore answers the request.
func StartCluster(m *Model, sink func(Event)) (*Cluster, error) {
	return service.StartCluster(m, sink)
}

// SyntheticHealthRecords generates a deterministic physical-attributes
// dataset of rows records (100 when rows is not positive); the same seed
// gives the same records.
func SyntheticHealthRecords(rows int, seed int64) *DataTable {
	return synth.HealthRecords(rows, seed)
}

// ---------------------------------------------------------------------------
// One-call pipelines.
// ---------------------------------------------------------------------------

// AssessResult bundles the outputs of the Assess pipeline.
type AssessResult struct {
	// PrivacyModel is the generated LTS.
	PrivacyModel *PrivacyModel
	// Assessment is the per-user disclosure-risk assessment.
	Assessment *RiskAssessment
	// Report is a rendered report combining the model summary and the
	// assessment.
	Report *Report
}

// Assess runs the full design-time pipeline for one user profile: validate
// the model, generate the privacy LTS, analyse unwanted-disclosure risk, and
// build a report, with the default generation options and risk
// configuration.
//
// Assess regenerates the LTS on every call. For the paper's generate-once/
// analyse-many workflow — or any server handling more than one request —
// hold an Engine and call Engine.Assess instead: it caches generated models
// by content fingerprint and deduplicates same-shaped profile analyses.
func Assess(m *Model, profile UserProfile) (*AssessResult, error) {
	return AssessContext(context.Background(), m, profile)
}

// AssessContext is Assess with cancellation: generation and analysis both
// poll ctx and abort promptly with ctx.Err() when the caller cancels or the
// deadline passes, leaking no goroutines.
func AssessContext(ctx context.Context, m *Model, profile UserProfile) (*AssessResult, error) {
	p, err := core.GenerateWithOptionsContext(ctx, m, GenerateOptions{})
	if err != nil {
		return nil, fmt.Errorf("privascope: generating privacy model: %w", err)
	}
	analyzer, err := risk.NewAnalyzer(RiskConfig{})
	if err != nil {
		return nil, err
	}
	assessment, err := analyzer.AnalyzeContext(ctx, p, profile)
	if err != nil {
		return nil, fmt.Errorf("privascope: analysing disclosure risk: %w", err)
	}
	return &AssessResult{PrivacyModel: p, Assessment: assessment,
		Report: buildAssessReport(m.Name, p, assessment)}, nil
}

// buildAssessReport composes the combined model-summary + disclosure report
// of an assessment; shared by the Assess pipeline and Engine.Assess so the
// two paths cannot diverge.
func buildAssessReport(modelName string, p *PrivacyModel, assessment *RiskAssessment) *Report {
	combined := report.NewReport("Privacy risk assessment: " + modelName)
	for _, section := range report.ModelSummary(p).Sections() {
		combined.AddTable(section.Title, section.Body, section.Table)
	}
	for _, section := range report.DisclosureAssessment(assessment).Sections() {
		combined.AddTable(section.Title, section.Body, section.Table)
	}
	return combined
}

// RenderAssessment renders a disclosure-risk assessment as a plain-text
// report.
func RenderAssessment(a *RiskAssessment) string {
	return report.DisclosureAssessment(a).Render()
}

// RenderModelSummary renders a summary of a generated privacy model.
func RenderModelSummary(p *PrivacyModel) string {
	return report.ModelSummary(p).Render()
}

// RenderRiskComparison renders CompareAssessments' changes as a plain-text
// table: per actor, datastore and field, the risk before and after.
func RenderRiskComparison(changes []RiskChange) string {
	return report.RiskComparison(changes).Render()
}

// RenderTableI renders the paper's Table I for an evaluator's dataset: one
// row per record with the risk fraction under each scenario of results, and
// a closing row of violation counts.
func RenderTableI(e *ValueRiskEvaluator, results []ValueRiskScenario) string {
	return report.TableICapped(e, results, 0).Render()
}

// RenderPseudonymisation renders a pseudonymisation annotation as a
// plain-text report: the policy and one row per risk transition.
func RenderPseudonymisation(a *PseudonymisationAnnotation) string {
	return report.PseudonymisationAnnotation(a).Render()
}

// RenderCompliance renders a compliance report as plain text: the verdict
// and, when there are any, the violations.
func RenderCompliance(r *ComplianceReport) string {
	return report.Compliance(r).Render()
}
