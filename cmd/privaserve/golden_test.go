package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/dataflow"
	"privascope/internal/service"
)

// replayFixture writes the healthcare model, the patient profile and a
// recorded event trace to dir: one full consented medical-service run, the
// administrator's risky EHR read, unmodelled researcher behaviour, a denied
// operation, and one event for a different user (skipped by the replay).
func replayFixture(t *testing.T, dir string) (modelPath, profilePath, eventsPath string) {
	t.Helper()
	modelPath = filepath.Join(dir, "model.json")
	if err := dataflow.Save(casestudy.Surgery(), modelPath); err != nil {
		t.Fatal(err)
	}
	profile := casestudy.PatientProfile()
	profilePath = filepath.Join(dir, "profile.json")
	profileJSON, err := json.Marshal(profile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(profilePath, profileJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	userID := profile.ID
	events := append(casestudy.MedicalServiceEvents(userID),
		service.Event{Actor: casestudy.ActorAdministrator, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorResearcher, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}},
		service.Event{Actor: casestudy.ActorNurse, Action: core.ActionRead, Datastore: casestudy.StoreEHR, UserID: userID,
			Fields: []string{casestudy.FieldDiagnosis}, Denied: true},
		service.Event{Actor: casestudy.ActorReceptionist, Action: core.ActionCollect, UserID: "someone-else",
			Fields: []string{casestudy.FieldName}},
	)
	eventsPath = filepath.Join(dir, "events.json")
	eventsJSON, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(eventsPath, eventsJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath, profilePath, eventsPath
}

// replaySection extracts the deterministic replay block of privaserve's
// output (the per-event lines, their alerts and the completion summary),
// dropping the lines that legitimately vary between runs, such as server
// ports.
func replaySection(output string) string {
	var lines []string
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, "replay") || strings.HasPrefix(line, "ALERT") {
			lines = append(lines, line)
		}
	}
	return strings.Join(lines, "\n")
}

// goldenReplay is the expected replay block for the healthcare fixture. The
// state IDs are stable because LTS generation is deterministic for every
// worker count.
const goldenReplay = `replay 1: collect([name date_of_birth]) by receptionist on  -> state s1
replay 2: create([name date_of_birth appointment]) by receptionist on appointments -> state s2
replay 3: read([name date_of_birth appointment]) by doctor on appointments -> state s3
replay 4: collect([medical_issues]) by doctor on  -> state s6
replay 5: create([name date_of_birth medical_issues diagnosis treatment]) by doctor on ehr -> state s8
replay 6: read([name treatment]) by nurse on ehr -> state s11
replay 7: read([diagnosis]) by administrator on ehr -> state s21
ALERT [risk]: medium-risk disclosure event for user "patient-1": non-allowed actor "administrator" may read date_of_birth, diagnosis, medical_issues, name, treatment from datastore "ehr" although no declared flow requires it; most sensitive field "diagnosis" (impact 0.90/high, likelihood 0.15/low) => risk medium
replay 8: read([diagnosis]) by researcher on ehr -> state s21
ALERT [unmodelled-behaviour]: observed read of [diagnosis] by "researcher" on "ehr" has no matching transition from state s21; the design model and the running system disagree
replay 9: read([diagnosis]) by nurse on ehr -> state s21
ALERT [denied-operation]: access-control denied read by "nurse" on ehr.[diagnosis]
replay complete: 9 events (1 skipped), 3 alerts`

// TestRunReplayGolden runs privaserve end-to-end against the healthcare
// example model — generation, monitor construction, event replay through the
// batch path, then live serving until the duration elapses — and requires
// the replay output to match the golden transcript byte for byte.
func TestRunReplayGolden(t *testing.T) {
	modelPath, profilePath, eventsPath := replayFixture(t, t.TempDir())
	var out strings.Builder
	err := run(context.Background(), []string{
		"-model", modelPath,
		"-profile", profilePath,
		"-events", eventsPath,
		"-duration", "100ms",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "duration elapsed; 3 alerts recorded") {
		t.Errorf("output missing the final alert count:\n%s", text)
	}
	if got := replaySection(text); got != goldenReplay {
		t.Errorf("replay output does not match the golden transcript:\n--- got\n%s\n--- want\n%s",
			got, goldenReplay)
	}
}
