package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
)

// goldenFile is the correctness reference of the assessment path. Reports
// holds, for the default seed, the SHA-256 of each class's rendered report as
// the code produced it when the benchmark was defined (report text, never
// modelstore bytes: those are schedule-dependent, ROADMAP item 1). Surgery
// holds the paper's numbers for the case study, written by hand; they do not
// depend on the seed.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Reports map[string]string `json:"reports"`
	Surgery surgeryNumbers    `json:"surgery"`
}

type surgeryNumbers struct {
	States               int    `json:"states"`
	Transitions          int    `json:"transitions"`
	PotentialReads       int    `json:"potential_reads"`
	AdministratorMaxRisk string `json:"administrator_max_risk"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, err
	}
	if g.Reports == nil {
		g.Reports = make(map[string]string)
	}
	return &g, nil
}

func hashText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// reportChecker holds every report of a class to one hash: the golden one on
// the default seed (and always for surgery, whose inputs no seed touches),
// otherwise the first one the run produced — run-internal determinism.
type reportChecker struct {
	golden *goldenFile
	seed   int64
	first  map[string]string
}

func newReportChecker(seed int64, useGolden bool) (*reportChecker, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if !useGolden {
		g.Reports = map[string]string{}
	}
	return &reportChecker{golden: g, seed: seed, first: make(map[string]string)}, nil
}

// check files one rendered report of the class into the outcome.
func (c *reportChecker) check(out *outcome, class, text string) {
	hash := hashText(text)
	if _, seen := c.first[class]; !seen {
		c.first[class] = hash
	}
	want, source := c.first[class], "the run's first"
	if g, ok := c.golden.Reports[class]; ok && (c.seed == c.golden.Seed || class == "surgery") {
		want, source = g, "the golden"
	}
	out.check(hash == want, 1, "%s report hashes %.12s, %s is %.12s", class, hash, source, want)
}

// writeGolden replaces the report hashes of the classes this run produced.
func (c *reportChecker) writeGolden(benchDir string) error {
	g := *c.golden
	g.Seed = c.seed
	for class, hash := range c.first {
		g.Reports[class] = hash
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, "testdata", "golden.json"), append(data, '\n'), 0o644)
}
