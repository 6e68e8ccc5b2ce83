package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/dataflow"
)

func TestRunServesAndExitsAfterDuration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := dataflow.Save(casestudy.Surgery(), path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-model", path, "-duration", "300ms"}, &out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("privaserve did not exit after the configured duration")
	}
	text := out.String()
	for _, want := range []string{"serving 3 datastores", casestudy.StoreEHR, "duration elapsed"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run(context.Background(), []string{"-model", "missing.json"}, &out); err == nil {
		t.Error("missing model file accepted")
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := dataflow.Save(casestudy.Surgery(), path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-model", path, "-profile", "missing.json", "-duration", "10ms"}, &out); err == nil {
		t.Error("missing profile accepted")
	}
	// A negative value is an error naming its flag, not "off". The timeout
	// ends a run that takes a negative -duration for "serve forever".
	for _, row := range []struct {
		flag string
		args []string
	}{
		{"-cluster", []string{"-model", path, "-cluster", "-2", "-duration", "10ms"}},
		{"-duration", []string{"-model", path, "-duration", "-5s"}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := run(ctx, row.args, &out)
		cancel()
		if err == nil || !strings.Contains(err.Error(), row.flag) {
			t.Errorf("negative %s: err = %v, want an error naming the flag", row.flag, err)
		}
	}
}

// serveLive runs privaserve with args and no -duration, reads the datastore
// URLs it prints, drives the Medical Service's datastore steps and the
// administrator's EHR read over HTTP as patient-1's actors, then interrupts
// it and returns everything it printed. Nothing waits for delivery: an
// answered request's event has reached the sink.
func serveLive(t *testing.T, args ...string) string {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		errc <- err
	}()
	var head strings.Builder
	urls := make(map[string]string)
	lines := bufio.NewScanner(pr)
	for len(urls) < 3 && lines.Scan() {
		head.WriteString(lines.Text() + "\n")
		if f := strings.Fields(lines.Text()); len(f) == 2 {
			switch f[0] {
			case casestudy.StoreAppointments, casestudy.StoreEHR, casestudy.StoreAnonEHR:
				urls[f[0]] = f[1]
			}
		}
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for lines.Scan() {
			b.WriteString(lines.Text() + "\n")
		}
		rest <- b.String()
	}()
	if len(urls) < 3 {
		cancel()
		t.Fatalf("privaserve printed %d datastore URLs (%v): %v\n%s", len(urls), <-errc, urls, head.String())
	}

	user := casestudy.PatientProfile().ID
	for i, step := range []struct {
		method, store, actor, purpose, fields string
		values                                map[string]string
	}{
		{http.MethodPut, casestudy.StoreAppointments, casestudy.ActorReceptionist, "schedule appointment", "",
			map[string]string{casestudy.FieldName: "Pat", casestudy.FieldDateOfBirth: "1990-01-01", casestudy.FieldAppointment: "10:30"}},
		{http.MethodGet, casestudy.StoreAppointments, casestudy.ActorDoctor, "prepare consultation", "", nil},
		{http.MethodPut, casestudy.StoreEHR, casestudy.ActorDoctor, "record consultation", "",
			map[string]string{casestudy.FieldName: "Pat", casestudy.FieldDateOfBirth: "1990-01-01",
				casestudy.FieldMedicalIssues: "cough", casestudy.FieldDiagnosis: "bronchitis", casestudy.FieldTreatment: "rest"}},
		{http.MethodGet, casestudy.StoreEHR, casestudy.ActorNurse, "administer treatment", "?fields=name,treatment", nil},
		{http.MethodGet, casestudy.StoreEHR, casestudy.ActorAdministrator, "maintenance", "?fields=diagnosis", nil},
	} {
		var body io.Reader
		if step.values != nil {
			data, err := json.Marshal(map[string]any{"values": step.values})
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, step.method, urls[step.store]+"/records/"+user+step.fields, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Privascope-Actor", step.actor)
		req.Header.Set("X-Privascope-Purpose", step.purpose)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= http.StatusMultipleChoices {
			t.Errorf("step %d: %s %s: %s", i+1, step.method, step.store, resp.Status)
		}
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
	return head.String() + <-rest
}

// linesWithPrefix returns the output's lines that start with prefix, sorted
// when sorted is set.
func linesWithPrefix(output, prefix string, sorted bool) []string {
	var out []string
	for _, line := range strings.Split(output, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// TestRunServesLiveTrafficInBothModes drives privaserve's datastores over
// HTTP, once with the single monitor and once with -cluster 2. Every
// operation reaches the monitor before it is answered: single mode prints
// one line per event, and both modes report the same alerts.
func TestRunServesLiveTrafficInBothModes(t *testing.T) {
	modelPath, profilePath, _ := replayFixture(t, t.TempDir())
	single := serveLive(t, "-model", modelPath, "-profile", profilePath)
	clustered := serveLive(t, "-model", modelPath, "-profile", profilePath, "-cluster", "2")

	if got, want := strings.Join(linesWithPrefix(single, "event ", false), "\n"), goldenLiveEvents; got != want {
		t.Errorf("single-mode event lines:\n--- got\n%s\n--- want\n%s", got, want)
	}
	singleAlerts, clusterAlerts := linesWithPrefix(single, "ALERT", true), linesWithPrefix(clustered, "ALERT", true)
	if len(singleAlerts) == 0 || !slices.Equal(singleAlerts, clusterAlerts) {
		t.Errorf("the modes report different alerts:\n--- single\n%s\n--- cluster 2\n%s",
			strings.Join(singleAlerts, "\n"), strings.Join(clusterAlerts, "\n"))
	}
	summary := fmt.Sprintf("privaserve: interrupted; %d alerts recorded", len(singleAlerts))
	for mode, output := range map[string]string{"single": single, "cluster 2": clustered} {
		if !strings.Contains(output, summary) {
			t.Errorf("%s output is missing %q:\n%s", mode, summary, output)
		}
	}
}

// goldenLiveEvents is single mode's line per live event. The collects happen
// between people, not at a datastore, so none reaches privaserve: the first
// datastore event already has no transition from the initial state, and the
// user stays there.
const goldenLiveEvents = `event 1: create([appointment date_of_birth name]) by receptionist on appointments -> state s0
event 2: read([appointment date_of_birth name]) by doctor on appointments -> state s0
event 3: create([date_of_birth diagnosis medical_issues name treatment]) by doctor on ehr -> state s0
event 4: read([name treatment]) by nurse on ehr -> state s0
event 5: read([diagnosis]) by administrator on ehr -> state s0`
