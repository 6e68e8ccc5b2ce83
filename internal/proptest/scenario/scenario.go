// Package scenario draws complete randomized verification scenarios — a
// random data-flow model with a random policy, a random user population, a
// random health-record table and random generation options — from a single
// seed. The proptest harness owns seeds and reproduction; this package's
// Random* generators own randomized structure: property tests across core,
// risk, runtime and the root package call scenario.Draw(seed) and get the
// same scenario on every machine.
//
// The package deliberately sits above internal/core in the dependency order,
// so internal test packages of the layers below (internal/lts) must keep
// using internal/proptest with their own local generators instead.
package scenario

import (
	"errors"
	"math/rand"

	"privascope/internal/anonymize"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/risk"
)

// Scenario is one fully-drawn verification scenario. Every field is a pure
// function of Seed.
type Scenario struct {
	// Seed is the value the scenario was drawn from, echoed for failure
	// messages.
	Seed int64
	// Model is a random valid data-flow model with a random
	// ACL/RBAC/composite-written policy (RandomModel).
	Model *dataflow.Model
	// Profiles is a random user population over Model's fields.
	Profiles []risk.UserProfile
	// Table is a random health-record dataset and QuasiIdentifiers its QI
	// column names.
	Table            *anonymize.Table
	QuasiIdentifiers []string
	// Opts is a random-but-valid generation configuration: random flow
	// ordering, random potential-read mode, random worker count. MaxStates
	// stays at the default: Draw keeps every model under maxDrawnStates, a
	// tenth of the cap, so generation never hits it.
	Opts core.Options
}

// maxDrawnStates bounds the privacy LTS of a drawn scenario. Random models are
// tiny as a rule (a median of about 40 states) but have a heavy tail under
// full potential reads: of the first draws of seeds 1 to 3,000, 28 exceed
// this bound there and one exceeds core.DefaultMaxStates. Draw redraws the
// tail, so every property sees a model that generates in milliseconds.
const maxDrawnStates = core.DefaultMaxStates / 10

// Draw materializes the scenario for one seed. A scenario whose model would
// generate more than maxDrawnStates states under full potential reads — the
// largest mode, which some properties substitute for the drawn one — is drawn
// again from the same random stream, so the result is still a pure function
// of the seed, and a seed whose first draw fits yields that draw.
func Draw(seed int64) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	for {
		s := draw(seed, rng)
		opts := s.Opts
		opts.PotentialReads, opts.MaxStates, opts.Workers = core.PotentialReadsFull, maxDrawnStates, 1
		if _, err := core.GenerateWithOptions(s.Model, opts); !errors.Is(err, core.ErrStateSpaceTooLarge) {
			return s
		}
	}
}

// draw takes one scenario from the stream.
func draw(seed int64, rng *rand.Rand) *Scenario {
	m := RandomModel(rng, RandomModelSpec{})
	profiles := RandomPopulation(rng, m, 8)
	table, qis := RandomTable(rng, 64)
	opts := core.Options{
		FlowOrdering: []core.FlowOrdering{
			core.OrderSequential, core.OrderDataDriven}[rng.Intn(2)],
		PotentialReads: []core.PotentialReadMode{
			core.PotentialReadsOff, core.PotentialReadsTerminal, core.PotentialReadsFull}[rng.Intn(3)],
		Workers: 1 + rng.Intn(4),
	}
	return &Scenario{
		Seed:             seed,
		Model:            m,
		Profiles:         profiles,
		Table:            table,
		QuasiIdentifiers: qis,
		Opts:             opts,
	}
}

// Generate runs privacy-LTS generation for the scenario with its drawn
// options.
func (s *Scenario) Generate() (*core.PrivacyLTS, error) {
	return core.GenerateWithOptions(s.Model, s.Opts)
}
