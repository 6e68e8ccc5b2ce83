package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/core"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

func TestGenerateContextPreCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.GenerateWithOptionsContext(ctx, casestudy.Surgery(), core.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGenerateContextCancelledMidBFS(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})

	// Time an uncancelled run so the test is meaningful on any hardware: the
	// cancel must land while the BFS is still exploring.
	start := time.Now()
	if _, err := core.GenerateWithOptionsContext(context.Background(), model,
		core.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 10)
		cancel()
	}()
	p, err := core.GenerateWithOptionsContext(ctx, model, core.Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Fatal("cancelled generation returned a partial model")
	}
}

func TestGenerateContextDeadline(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	model := synth.Model(synth.ModelSpec{Services: 5, FieldsPerService: 3})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := core.GenerateWithOptionsContext(ctx, model, core.Options{Workers: 8})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestGenerateContextBackgroundMatchesGenerate: the context-free API is a
// thin wrapper; generating under a background context with zero options must
// produce the identical model.
func TestGenerateContextBackgroundMatchesGenerate(t *testing.T) {
	model := casestudy.Surgery()
	viaContext, err := core.GenerateWithOptionsContext(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Generate(model)
	if err != nil {
		t.Fatal(err)
	}
	if ltsDigest(t, viaContext) != ltsDigest(t, direct) {
		t.Error("GenerateWithOptionsContext(background) and Generate produced different models")
	}
}
