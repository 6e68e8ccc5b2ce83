package anonymize

import (
	"context"
	"errors"
	"fmt"
)

// Re-identification risk is the first of the two pseudonymisation risk types
// the paper names (Section III-B: "Re-identification: The risk that a person
// whose personal data is pseudonymised within a disclosed data set can be
// re-identified"). The paper's own analysis then concentrates on value risk;
// this file provides the complementary re-identification measures so the
// toolkit covers both, using the three standard attacker models that the
// paper's related-work section cites via the ARX tool (prosecutor,
// journalist, marketer).

// AttackerModel selects the assumptions made about the adversary when
// estimating re-identification risk.
type AttackerModel int

// Attacker models.
//
//   - Prosecutor: the adversary knows their target is in the dataset; the
//     per-record risk is 1 / |equivalence class|.
//   - Journalist: the adversary does not know whether the target is in the
//     dataset; without a population table the class-size-based risk is the
//     same upper bound as the prosecutor model, which is how it is reported
//     here.
//   - Marketer: the adversary wants to re-identify as many records as
//     possible; the risk is the expected fraction of records re-identified,
//     i.e. the average of the per-record prosecutor risks.
const (
	AttackerProsecutor AttackerModel = iota + 1
	AttackerJournalist
	AttackerMarketer
)

// String returns the lower-case model name.
func (a AttackerModel) String() string {
	switch a {
	case AttackerProsecutor:
		return "prosecutor"
	case AttackerJournalist:
		return "journalist"
	case AttackerMarketer:
		return "marketer"
	default:
		return fmt.Sprintf("attacker(%d)", int(a))
	}
}

// RecordReidentRisk is the re-identification risk of a single record.
type RecordReidentRisk struct {
	// Row is the record's index.
	Row int
	// ClassSize is the size of the record's equivalence class over the
	// quasi-identifiers.
	ClassSize int
	// Risk is the probability of re-identification under the prosecutor
	// model, 1 / ClassSize.
	Risk float64
}

// ReidentReport summarises the re-identification risk of a dataset.
type ReidentReport struct {
	// QuasiIdentifiers are the columns the adversary is assumed to know.
	QuasiIdentifiers []string
	// Records holds the per-record risks in row order.
	Records []RecordReidentRisk
	// HighestRisk is the maximum per-record risk (the prosecutor headline
	// number).
	HighestRisk float64
	// AverageRisk is the mean per-record risk (the marketer number).
	AverageRisk float64
	// AtRiskRecords is the number of records whose risk meets or exceeds the
	// threshold passed to ReidentificationRisk.
	AtRiskRecords int
	// Threshold is the threshold used for AtRiskRecords.
	Threshold float64
	// SmallestClass is the size of the smallest equivalence class; a dataset
	// is k-anonymous exactly when SmallestClass >= k.
	SmallestClass int
}

// RiskFor returns the headline risk number under the given attacker model.
func (r ReidentReport) RiskFor(model AttackerModel) float64 {
	switch model {
	case AttackerMarketer:
		return r.AverageRisk
	default:
		// Prosecutor, and journalist as its upper bound without a population
		// table.
		return r.HighestRisk
	}
}

// ReidentificationRisk computes the re-identification risk of every record
// given the quasi-identifier columns the adversary is assumed to know.
// Records whose risk is at least threshold are counted as at-risk; a
// threshold of 0.2, for example, flags records in classes smaller than 5.
func ReidentificationRisk(ctx context.Context, t *Table, quasiIdentifiers []string, threshold float64) (ReidentReport, error) {
	return ReidentificationRiskIndexed(ctx, NewClassIndex(t), quasiIdentifiers, threshold)
}

// ReidentificationRiskIndexed is ReidentificationRisk drawing its
// equivalence classes from a ClassIndex, so the partition is shared with
// (for example) a value-risk scenario over the same quasi-identifiers
// instead of being recomputed. All three attacker models are derived from
// the one cached partition.
func ReidentificationRiskIndexed(ctx context.Context, ix *ClassIndex, quasiIdentifiers []string, threshold float64) (ReidentReport, error) {
	if ix == nil {
		return ReidentReport{}, errors.New("anonymize: class index must not be nil")
	}
	t := ix.Table()
	if t == nil {
		return ReidentReport{}, errors.New("anonymize: table must not be nil")
	}
	if len(quasiIdentifiers) == 0 {
		return ReidentReport{}, errors.New("anonymize: at least one quasi-identifier is required")
	}
	if threshold < 0 || threshold > 1 {
		return ReidentReport{}, fmt.Errorf("anonymize: threshold %v outside [0,1]", threshold)
	}
	classes, err := ix.Classes(ctx, quasiIdentifiers)
	if err != nil {
		return ReidentReport{}, err
	}
	report := ReidentReport{
		QuasiIdentifiers: append([]string(nil), quasiIdentifiers...),
		Records:          make([]RecordReidentRisk, t.NumRows()),
		Threshold:        threshold,
	}
	if t.NumRows() == 0 {
		return report, nil
	}
	report.SmallestClass = smallestClass(classes)
	sum := 0.0
	for _, class := range classes {
		size := len(class)
		risk := 1.0 / float64(size)
		for _, row := range class {
			report.Records[row] = RecordReidentRisk{Row: row, ClassSize: size, Risk: risk}
			sum += risk
			report.HighestRisk = max(report.HighestRisk, risk)
			if risk >= threshold {
				report.AtRiskRecords++
			}
		}
	}
	report.AverageRisk = sum / float64(t.NumRows())
	return report, nil
}
