package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a process of its own — peak memory is per
// process, and one workload's garbage must not be another's — and returns
// the record it printed.
func runChild(workloadName string, seed int64, seconds float64, trace int) (*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workloadName, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	recs, err := parseRecords(bytes.NewReader(stdout))
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("%s: child printed %d records (%v)", workloadName, len(recs), runErr)
	}
	if runErr != nil {
		return recs[0], fmt.Errorf("%s: %w", workloadName, runErr)
	}
	return recs[0], nil
}

// parseRecords reads one JSON record per line, skipping lines that are not
// records (a run's last line is the contract's summary object).
func parseRecords(r io.Reader) ([]*record, error) {
	var out []*record
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Workload == "" {
			continue
		}
		out = append(out, &rec)
	}
	return out, sc.Err()
}

// runAll runs every workload once, each in its own child process, printing
// each record as it arrives.
func runAll(seed int64, seconds float64, trace int) error {
	var firstErr error
	for _, w := range workloads {
		rec, err := runChild(w.Name, seed, seconds, trace)
		if rec != nil {
			line, _ := json.Marshal(rec) // a record just parsed from JSON marshals back
			fmt.Printf("%s\n", line)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// worsening is how much worse `after` is than `before` for the metric, as a
// share of before: positive is a regression whichever way the metric points.
func worsening(def metricDef, before, after float64) float64 {
	if before == 0 {
		return 0
	}
	change := (after - before) / before
	if def.Better == "higher" {
		return -change
	}
	return change
}

// metricSets collects, per workload and metric, the values of a set of
// records, in the catalog's order.
type metricSets map[string]map[string][]float64

func collect(recs []*record) metricSets {
	sets := make(metricSets)
	for _, r := range recs {
		if sets[r.Workload] == nil {
			sets[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			sets[r.Workload][name] = append(sets[r.Workload][name], m.Value)
		}
	}
	return sets
}

// printComparison prints one row per workload and metric found in both sets
// and returns how many end-to-end metrics worsened beyond their bound.
func printComparison(a, b metricSets) (beyond int) {
	fmt.Printf("%-18s %-32s %12s %12s %12s %12s %8s %8s %7s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse", "bound", "")
	row := func(w string, def metricDef) {
		va, vb := a[w][def.Name], b[w][def.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		aq1, aq3 := quartiles(va)
		bq1, bq3 := quartiles(vb)
		worse := worsening(def, median(va), median(vb))
		bound, verdict := "-", ""
		if def.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", def.Bound*100)
			if worse > def.Bound {
				verdict = "BEYOND"
				beyond++
			}
		}
		fmt.Printf("%-18s %-32s %12.4f %12.4f %12.4f %12.4f %7.1f%% %8s %7s\n",
			w, def.Name, median(va), aq3-aq1, median(vb), bq3-bq1, worse*100, bound, verdict)
	}
	for _, w := range workloads {
		for _, def := range endToEnd {
			row(w.Name, def)
		}
		for _, def := range perLayer {
			row(w.Name, def)
		}
	}
	return beyond
}

// compareFiles sets two files of records side by side. Records measured on
// different core counts are not comparable and are refused.
func compareFiles(pathA, pathB string) error {
	read := func(path string) ([]*record, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := parseRecords(f)
		if err == nil && len(recs) == 0 {
			err = fmt.Errorf("%s holds no records", path)
		}
		return recs, err
	}
	a, err := read(pathA)
	if err != nil {
		return err
	}
	b, err := read(pathB)
	if err != nil {
		return err
	}
	host := a[0].Host
	for _, r := range append(append([]*record(nil), a...), b...) {
		if r.Host.NProc != host.NProc || r.Host.GOMAXPROCS != host.GOMAXPROCS {
			return fmt.Errorf("records are not comparable: nproc/GOMAXPROCS %d/%d and %d/%d",
				host.NProc, host.GOMAXPROCS, r.Host.NProc, r.Host.GOMAXPROCS)
		}
		if r.Failed != 0 {
			return fmt.Errorf("%s (seed %d): %d operations failed; a wrong run's times mean nothing", r.Workload, r.Seed, r.Failed)
		}
	}
	if beyond := printComparison(collect(a), collect(b)); beyond > 0 {
		return fmt.Errorf("%d end-to-end metrics worsened beyond their bound", beyond)
	}
	return nil
}

// repeatRuns is the benchmark's check on itself: two interleaved sets of k
// runs of the same code (run i of either set on seed+i) must agree within
// every end-to-end metric's bound, in both directions, and each set's
// spread must stay inside it.
func repeatRuns(workloadName string, seed int64, seconds float64, k int) error {
	names := []string{workloadName}
	if workloadName == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var setA, setB []*record
	for _, name := range names {
		for i := 0; i < k; i++ {
			for _, set := range []*[]*record{&setA, &setB} {
				rec, err := runChild(name, seed+int64(i), seconds, 0)
				if err != nil {
					return err
				}
				*set = append(*set, rec)
			}
		}
	}
	a, b := collect(setA), collect(setB)
	beyond := printComparison(a, b) + printComparison(b, a)
	for _, name := range names {
		for _, def := range endToEnd {
			for _, set := range []metricSets{a, b} {
				if s := spreadShare(set[name][def.Name]); def.Name != "setup_s" && s > def.Bound {
					fmt.Printf("%s %s: spread %.1f%% is beyond the bound %.1f%%\n", name, def.Name, s*100, def.Bound*100)
					beyond++
				}
			}
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between two sets of runs of the same code", beyond)
	}
	return nil
}
