// Package risk implements the paper's automated analysis of the risk of
// unwanted disclosure (Section III-A).
//
// The analysis is performed per user against a generated privacy LTS. The
// user's privacy-control requirements are captured by a UserProfile: the
// services the user has agreed to use, and a sensitivity value σ(d) in [0,1]
// for each data field. Actors that take part in a consented service are
// "allowed"; everybody else is "non-allowed", and the sensitivity of a field
// relative to an allowed actor is zero.
//
// Risk has two dimensions:
//
//   - Impact: the maximum sensitivity change a transition causes relative to
//     the absolute privacy state — in practice, the highest σ(d, a) among the
//     state variables the transition newly sets for non-allowed actors.
//   - Likelihood: attached to read actions that sit outside the user's
//     consented services, as the sum of the probabilities of the
//     uncorrelated scenarios under which such a read would happen
//     (accidental access, maintenance exposure, execution of a non-consented
//     service).
//
// Impact and likelihood are bucketed into low/medium/high categories and
// combined through a service-specific risk matrix into a risk level per
// transition; the overall assessment is the maximum across transitions.
package risk

import (
	"errors"
	"fmt"
	"strconv"
)

// Canonical sensitivity values for the qualitative categories the paper
// mentions ("a sensitivity category (low, medium, high for example), or a
// number ... between 0 and 1").
const (
	SensitivityLow    = 0.25
	SensitivityMedium = 0.5
	SensitivityHigh   = 0.9
)

// Level is a qualitative risk (or impact/likelihood) category.
type Level int

// Levels, from no risk to high risk. They begin at one so the zero value is
// distinguishable from "assessed as none".
const (
	LevelNone Level = iota + 1
	LevelLow
	LevelMedium
	LevelHigh
)

var levelNames = [...]string{
	LevelNone:   "none",
	LevelLow:    "low",
	LevelMedium: "medium",
	LevelHigh:   "high",
}

func (l Level) defined() bool { return l >= LevelNone && l <= LevelHigh }

// String returns the lower-case level name.
func (l Level) String() string {
	if l.defined() {
		return levelNames[l]
	}
	return "level(" + strconv.Itoa(int(l)) + ")"
}

// UserProfile captures one user's privacy-control requirements.
type UserProfile struct {
	// ID identifies the user (or simulated user at design time).
	ID string `json:"id"`
	// ConsentedServices lists the service IDs the user agreed to use.
	ConsentedServices []string `json:"consented_services"`
	// Sensitivities maps field names to σ(d) in [0,1]. Fields not listed
	// default to DefaultSensitivity.
	Sensitivities map[string]float64 `json:"sensitivities"`
	// DefaultSensitivity is used for fields without an explicit value;
	// a zero value means "not sensitive at all".
	DefaultSensitivity float64 `json:"default_sensitivity"`
}

// Validate checks that every sensitivity lies in [0,1]. The comparisons are
// written so NaN is rejected too: a NaN sensitivity would otherwise slip
// through a plain range check and corrupt impact computation downstream.
func (u UserProfile) Validate() error {
	if !(u.DefaultSensitivity >= 0 && u.DefaultSensitivity <= 1) {
		return fmt.Errorf("risk: default sensitivity %v outside [0,1]", u.DefaultSensitivity)
	}
	for f, s := range u.Sensitivities {
		if !(s >= 0 && s <= 1) {
			return fmt.Errorf("risk: sensitivity of %q is %v, outside [0,1]", f, s)
		}
	}
	return nil
}

// Sensitivity returns σ(d) for the field.
func (u UserProfile) Sensitivity(field string) float64 {
	if s, ok := u.Sensitivities[field]; ok {
		return s
	}
	return u.DefaultSensitivity
}

// Scenario is one of the uncorrelated situations under which a non-allowed
// actor might read personal data outside any consented service
// (Section III-A lists accidental access, exposure during maintenance
// deletion, and execution of a non-consented service).
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Probability float64 `json:"probability"`
	// AppliesToService is true for the scenario modelling the execution of a
	// whole non-consented service; it contributes to reads that are part of
	// declared flows of non-consented services rather than to potential
	// reads.
	AppliesToService bool `json:"applies_to_service,omitempty"`
}

// Scenario names used by DefaultScenarios.
const (
	ScenarioAccidentalAccess    = "accidental-access"
	ScenarioMaintenanceExposure = "maintenance-exposure"
	ScenarioNonConsentedService = "non-consented-service"
)

// DefaultScenarios returns the three scenarios of Section III-A with default
// probabilities. Deployments should calibrate these per service.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: ScenarioAccidentalAccess, Probability: 0.05,
			Description: "a datastore query returns a small subset of users and the actor identifies fields while searching for a different user"},
		{Name: ScenarioMaintenanceExposure, Probability: 0.10,
			Description: "an actor maintaining the service is shown the data, for example before deleting it"},
		{Name: ScenarioNonConsentedService, Probability: 0.25, AppliesToService: true,
			Description: "an actor begins the execution of a service that the user did not agree to use"},
	}
}

// Matrix buckets impact and likelihood values into low/medium/high and maps
// each (impact, likelihood) pair to a risk level. "The categorisation of the
// impact and likelihood, as well as the table to determine the risk level,
// should be specified according to the type of service."
type Matrix struct {
	// ImpactThresholds are the upper bounds of the low and medium impact
	// buckets; impacts above the second threshold are high.
	ImpactThresholds [2]float64 `json:"impact_thresholds"`
	// LikelihoodThresholds are the analogous bounds for likelihood.
	LikelihoodThresholds [2]float64 `json:"likelihood_thresholds"`
	// Table maps [impact bucket][likelihood bucket] to a risk level, where
	// bucket 0 is low, 1 is medium and 2 is high.
	Table [3][3]Level `json:"table"`
}

// DefaultMatrix returns a conventional 3×3 risk matrix: risk grows with both
// dimensions, a high-impact event is at least medium risk, and a low-impact
// event is at most medium risk.
func DefaultMatrix() Matrix {
	return Matrix{
		ImpactThresholds:     [2]float64{0.34, 0.67},
		LikelihoodThresholds: [2]float64{0.2, 0.5},
		Table: [3][3]Level{
			{LevelLow, LevelLow, LevelMedium},   // low impact
			{LevelLow, LevelMedium, LevelHigh},  // medium impact
			{LevelMedium, LevelHigh, LevelHigh}, // high impact
		},
	}
}

// Validate checks threshold ordering and that every table entry is a defined
// level.
func (m Matrix) Validate() error {
	if !(m.ImpactThresholds[0] >= 0 && m.ImpactThresholds[0] <= m.ImpactThresholds[1] && m.ImpactThresholds[1] <= 1) {
		return errors.New("risk: impact thresholds must satisfy 0 <= t0 <= t1 <= 1")
	}
	if !(m.LikelihoodThresholds[0] >= 0 && m.LikelihoodThresholds[0] <= m.LikelihoodThresholds[1] && m.LikelihoodThresholds[1] <= 1) {
		return errors.New("risk: likelihood thresholds must satisfy 0 <= t0 <= t1 <= 1")
	}
	for i := range m.Table {
		for j := range m.Table[i] {
			if !m.Table[i][j].defined() {
				return fmt.Errorf("risk: matrix entry [%d][%d] is not a valid level", i, j)
			}
		}
	}
	return nil
}

// ImpactLevel buckets an impact value.
func (m Matrix) ImpactLevel(impact float64) Level {
	return bucketLevel(impact, m.ImpactThresholds)
}

// LikelihoodLevel buckets a likelihood value.
func (m Matrix) LikelihoodLevel(likelihood float64) Level {
	return bucketLevel(likelihood, m.LikelihoodThresholds)
}

func bucketLevel(v float64, thresholds [2]float64) Level {
	switch {
	case v <= 0:
		return LevelNone
	case v < thresholds[0]:
		return LevelLow
	case v < thresholds[1]:
		return LevelMedium
	default:
		return LevelHigh
	}
}

// Risk combines bucketed impact and likelihood through the table. A none on
// either dimension yields none.
func (m Matrix) Risk(impact, likelihood Level) Level {
	if impact == LevelNone || likelihood == LevelNone {
		return LevelNone
	}
	return m.Table[int(impact-LevelLow)][int(likelihood-LevelLow)]
}

// Config configures an Analyzer. The zero value selects the defaults.
type Config struct {
	Scenarios []Scenario
	Matrix    Matrix
}

func (c Config) withDefaults() Config {
	if len(c.Scenarios) == 0 {
		c.Scenarios = DefaultScenarios()
	}
	zero := Matrix{}
	if c.Matrix == zero {
		c.Matrix = DefaultMatrix()
	}
	return c
}
