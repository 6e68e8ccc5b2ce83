package main

import (
	"context"
	"path/filepath"
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
