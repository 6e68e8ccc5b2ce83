package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"privascope/internal/accesscontrol"
	"privascope/internal/dataflow"
	"privascope/internal/explore"
	"privascope/internal/schema"
)

// FlowOrdering controls how flows within one service are sequenced during
// state-space exploration.
type FlowOrdering int

// Flow orderings. OrderSequential executes each service's flows in their
// declared numeric order (the paper labels every flow arrow with "a numeric
// value indicating the order in which the data flow is executed");
// OrderDataDriven lets any not-yet-executed flow of a service fire as soon as
// its source node holds the required data ("the flows can be executed
// independently, provided the start node has the correct data to flow").
// Services always interleave with each other in both modes.
const (
	OrderSequential FlowOrdering = iota + 1
	OrderDataDriven
)

// PotentialReadMode controls whether the generator adds "potential read"
// transitions: reads permitted by the access-control policy that no declared
// flow performs. They represent the disclosure events risk analysis assesses
// (Section III-A: "the read action ... impacts the likelihood of a disclosure
// of a user's personal data").
type PotentialReadMode int

// Potential-read modes. PotentialReadsOff adds none; PotentialReadsTerminal
// (the default) adds the transitions but does not continue exploration from
// their target states, keeping the model compact; PotentialReadsFull explores
// the targets like any other state.
const (
	PotentialReadsOff PotentialReadMode = iota + 1
	PotentialReadsTerminal
	PotentialReadsFull
)

// DefaultMaxStates bounds exploration so a mis-specified model cannot consume
// unbounded memory; Generate returns ErrStateSpaceTooLarge when it is hit.
const DefaultMaxStates = 250000

// ErrStateSpaceTooLarge is returned when exploration exceeds Options.MaxStates.
var ErrStateSpaceTooLarge = errors.New("core: state space exceeds the configured maximum; simplify the model or raise Options.MaxStates")

// Options configures privacy-LTS generation. The zero value selects the
// defaults (sequential flows, terminal potential reads, DefaultMaxStates, one
// worker per available CPU).
type Options struct {
	FlowOrdering   FlowOrdering
	PotentialReads PotentialReadMode
	// MaxStates caps the number of generated states; zero means
	// DefaultMaxStates.
	MaxStates int
	// Workers is the number of goroutines expanding the BFS frontier in
	// parallel; zero or negative means runtime.GOMAXPROCS(0). The generated
	// LTS — state IDs, transition order, initial state — is byte-identical
	// for every worker count: workers only expand states of one frontier
	// generation concurrently, and their discoveries are merged
	// deterministically in frontier order.
	Workers int
	// Explore selects the exploration strategy (see internal/explore); the
	// zero value is plain full exploration. Every strategy produces the same
	// PrivacyLTS byte for byte — the knobs only change how much work it takes.
	Explore ExploreOptions
}

// ExploreOptions are the exploration-strategy knobs of Options.
type ExploreOptions struct {
	// Symmetry enables symmetry reduction: actors that are exact structural
	// replicas of each other (same flow shapes, same policy grants) are
	// detected, the state space is first explored modulo permutations of each
	// replica group, and the full LTS is then regenerated from that quotient.
	// When the model has no provable symmetry the option is a no-op.
	Symmetry bool
}

// ExploreReport describes how a generation run explored the state space; it
// is diagnostic output, not part of the LTS.
type ExploreReport struct {
	// Mode is "full", "symmetry", or "replay" (incremental regeneration).
	Mode string
	// States is the number of states of the generated LTS; StatesExplored is
	// the number of state expansions the final pass performed.
	States         int
	StatesExplored int

	// Symmetry-mode fields: the quotient size and the orbit structure.
	CanonicalStates int
	Orbits          int
	OrbitActors     int

	// Replay-mode fields: how many states could not reuse the previous run's
	// successors and fell back to cold expansion, and what the model delta
	// looked like.
	ColdExpanded    int
	Fallback        bool
	FallbackReason  string
	DeltaKind       string
	AffectedReaders int
}

func (o Options) withDefaults() Options {
	if o.FlowOrdering == 0 {
		o.FlowOrdering = OrderSequential
	}
	if o.PotentialReads == 0 {
		o.PotentialReads = PotentialReadsTerminal
	}
	if o.MaxStates == 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Generator builds privacy LTSs from data-flow models. A single Generator
// may be reused across models.
type Generator struct {
	opts Options
}

// NewGenerator returns a generator with the given options.
func NewGenerator(opts Options) *Generator {
	return &Generator{opts: opts.withDefaults()}
}

// Generate builds the privacy LTS for the model using default options.
func Generate(m *dataflow.Model) (*PrivacyLTS, error) {
	return GenerateWithOptionsContext(context.Background(), m, Options{})
}

// GenerateWithOptionsContext builds the privacy LTS for the model using the
// supplied options.
//
// Exploration is delegated to the internal/explore driver: a
// level-synchronised parallel BFS over a compact binary state encoding. The
// model is compiled once (per-flow gate and effect masks, potential-read
// tables), each frontier generation is expanded by Options.Workers goroutines
// into per-worker arenas, and the discoveries are merged on one goroutine in
// frontier order, which makes state numbering and transition order
// deterministic regardless of the worker count — and regardless of the
// exploration strategy selected by Options.Explore.
//
// Cancellation is observed at state granularity: every exploration worker
// polls ctx before expanding each frontier state and the merge loop polls it
// between generations, so a cancelled context aborts mid-BFS and returns
// ctx.Err() promptly, with every worker goroutine joined before the call
// returns (none leak).
func GenerateWithOptionsContext(ctx context.Context, m *dataflow.Model, opts Options) (*PrivacyLTS, error) {
	p, _, _, err := NewGenerator(opts).generate(ctx, m)
	return p, err
}

// GenerateTracedContext is GenerateWithOptionsContext with the generator's
// options, additionally returning the exploration trace (the input of
// incremental regeneration, see RegenerateContext) and a report describing
// how the state space was explored.
func (g *Generator) GenerateTracedContext(ctx context.Context, m *dataflow.Model) (*PrivacyLTS, *explore.Result, *ExploreReport, error) {
	return g.generate(ctx, m)
}

// prepared carries the outcome of the shared generation preamble: the
// validated model compiled against its vocabulary, and the PrivacyLTS shell
// with the policy warnings already recorded.
type prepared struct {
	p  *PrivacyLTS
	cm *compiledModel
}

// prepare runs the generation preamble shared by full generation and
// incremental regeneration: validation, vocabulary construction, policy
// warnings, the encoding-limit check, and model compilation. Every path
// produces identical warnings and errors for the same model.
func (g *Generator) prepare(m *dataflow.Model) (*prepared, error) {
	if m == nil {
		return nil, errors.New("core: model must not be nil")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid model: %w", err)
	}
	vocab := VocabularyFromModel(m)
	p := &PrivacyLTS{Model: m, Vocab: vocab}
	policy := m.Policy
	if policy == nil {
		policy = &accesscontrol.ACL{}
		p.Warnings = append(p.Warnings,
			"model has no access-control policy attached; no 'could identify' variables or potential reads will be derived")
	}
	g.checkPolicyConsistency(m, policy, p)

	// The packed encoding keeps one 16-bit progress counter per service.
	for _, svcID := range m.ServiceIDs() {
		if n := len(m.ServiceFlows(svcID)); n > 0xffff {
			return nil, fmt.Errorf("core: service %q has %d flows; the exploration encoding supports at most %d per service", svcID, n, 0xffff)
		}
	}
	return &prepared{p: p, cm: compileModel(m, policy, vocab, g.opts.FlowOrdering)}, nil
}

// exploreConfig is the driver configuration implied by the options.
func (g *Generator) exploreConfig() explore.Config {
	return explore.Config{Workers: g.opts.Workers, MaxStates: g.opts.MaxStates}
}

// wrapExploreErr maps driver errors onto the package's public errors.
func (g *Generator) wrapExploreErr(err error) error {
	if errors.Is(err, explore.ErrStateLimit) {
		return fmt.Errorf("%w (limit %d)", ErrStateSpaceTooLarge, g.opts.MaxStates)
	}
	return err
}

func (g *Generator) generate(ctx context.Context, m *dataflow.Model) (*PrivacyLTS, *explore.Result, *ExploreReport, error) {
	pre, err := g.prepare(m)
	if err != nil {
		return nil, nil, nil, err
	}
	var (
		res    *explore.Result
		report *ExploreReport
	)
	if g.opts.Explore.Symmetry {
		res, report, err = g.runSymmetry(ctx, pre.cm)
	} else {
		res, err = explore.Run(ctx, g.exploreConfig(), &coldExpander{cm: pre.cm, mode: g.opts.PotentialReads})
	}
	if err != nil {
		return nil, nil, nil, g.wrapExploreErr(err)
	}
	if report == nil {
		report = &ExploreReport{Mode: "full"}
	}
	report.States = res.NumStates
	report.StatesExplored = res.Explored
	if err := assemble(ctx, pre.p, pre.cm, res, g.opts.Workers); err != nil {
		return nil, nil, nil, err
	}
	return pre.p, res, report, nil
}

// deriveAction applies the paper's extraction rules to a flow.
func deriveAction(m *dataflow.Model, f dataflow.Flow) (Action, bool) {
	fromKind, ok := m.NodeKindOf(f.From)
	if !ok {
		return 0, false
	}
	toKind, ok := m.NodeKindOf(f.To)
	if !ok {
		return 0, false
	}
	switch {
	case fromKind == dataflow.NodeUser && toKind == dataflow.NodeActor:
		return ActionCollect, true
	case fromKind == dataflow.NodeActor && toKind == dataflow.NodeActor:
		return ActionDisclose, true
	case fromKind == dataflow.NodeActor && toKind == dataflow.NodeDatastore:
		if f.Delete {
			return ActionDelete, true
		}
		if d, ok := m.Datastore(f.To); ok && d.Anonymised {
			return ActionAnon, true
		}
		return ActionCreate, true
	case fromKind == dataflow.NodeDatastore && toKind == dataflow.NodeActor:
		return ActionRead, true
	default:
		return 0, false
	}
}

// flowLabel builds the transition label for a declared flow.
func flowLabel(f dataflow.Flow, action Action) *TransitionLabel {
	label := NewTransitionLabel(action, "", f.Fields)
	label.Purpose = f.Purpose
	label.Service = f.Service
	label.FlowKey = f.Key()
	switch action {
	case ActionCollect:
		label.Actor = f.To
		label.Counterpart = f.From
	case ActionDisclose:
		label.Actor = f.From
		label.Counterpart = f.To
	case ActionCreate, ActionAnon, ActionDelete:
		label.Actor = f.From
		label.Datastore = f.To
	case ActionRead:
		label.Actor = f.To
		label.Datastore = f.From
	}
	if action == ActionAnon {
		anonNames := make([]string, 0, len(f.Fields))
		for _, field := range f.Fields {
			anonNames = append(anonNames, schema.AnonName(field))
		}
		sort.Strings(anonNames)
		label.Fields = anonNames
	}
	return label
}

// checkPolicyConsistency records a warning for every declared flow whose
// acting actor lacks the permission the flow requires (write for create/anon,
// delete for delete flows, read for read flows). Such flows represent a
// mismatch between the designed behaviour and the access-control policy.
func (g *Generator) checkPolicyConsistency(m *dataflow.Model, policy accesscontrol.Policy, p *PrivacyLTS) {
	for _, f := range m.Flows {
		action, ok := deriveAction(m, f)
		if !ok {
			continue
		}
		var actor, store string
		var perm accesscontrol.Permission
		fields := f.Fields
		switch action {
		case ActionCreate:
			actor, store, perm = f.From, f.To, accesscontrol.PermissionWrite
		case ActionAnon:
			actor, store, perm = f.From, f.To, accesscontrol.PermissionWrite
			anon := make([]string, 0, len(f.Fields))
			for _, field := range f.Fields {
				anon = append(anon, schema.AnonName(field))
			}
			fields = anon
		case ActionDelete:
			actor, store, perm = f.From, f.To, accesscontrol.PermissionDelete
		case ActionRead:
			actor, store, perm = f.To, f.From, accesscontrol.PermissionRead
		default:
			continue
		}
		for _, field := range fields {
			if !policy.Allows(actor, store, field, perm) {
				p.Warnings = append(p.Warnings, fmt.Sprintf(
					"flow %s: actor %q lacks %s permission on %s.%s required by the declared flow",
					f.Key(), actor, perm, store, field))
			}
		}
	}
}
