package anonymize_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"privascope/internal/anonymize"
	"privascope/internal/synth"
	"privascope/internal/testutil"
)

func cancelTestTable() *anonymize.Table {
	// Several times the row-loop poll interval (4096).
	return synth.HealthRecords(synth.HealthRecordsOptions{Rows: 30_000, Seed: 7})
}

func TestValueRisksContextPreCancelled(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	table := cancelTestTable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := anonymize.ValueRisks(ctx, table, anonymize.ValueRiskOptions{
		VisibleColumns: []string{"age", "height"},
		TargetColumn:   "weight",
		Closeness:      5,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelAfter is a context that is cancelled from its n-th Err poll on: a
// deterministic "Ctrl-C somewhere in the middle".
type cancelAfter struct {
	context.Context
	polls, after int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestKAnonymizeHonoursCancellation: the widening search runs up to twenty
// rounds of class building over the whole table, and every one polls ctx —
// before the first round, and wherever in the search the cancellation lands.
func TestKAnonymizeHonoursCancellation(t *testing.T) {
	table := cancelTestTable()
	qis := []string{"age", "height"}
	// k above the table's size: no width reaches it, so the search runs all
	// its rounds unless it is stopped.
	k := table.NumRows() + 1
	full := &cancelAfter{Context: context.Background(), after: 1 << 30}
	if _, _, err := anonymize.KAnonymize(full, table, qis, k, anonymize.KAnonymizeOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, after := range []int{0, 1, full.polls / 2, full.polls - 1} {
		ctx := &cancelAfter{Context: context.Background(), after: after}
		_, _, err := anonymize.KAnonymize(ctx, table, qis, k, anonymize.KAnonymizeOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", after+1, full.polls, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := anonymize.ReidentificationRisk(ctx, table, []string{"age"}, 0.2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReidentificationRisk: err = %v, want context.Canceled", err)
	}
}

func TestClassIndexCancelledBuildIsNotCached(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	table := cancelTestTable()
	index := anonymize.NewClassIndex(table)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := index.Classes(ctx, []string{"age", "height"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The aborted build must not poison the index: a live caller recomputes
	// and gets the real partition.
	classes, err := index.Classes(context.Background(), []string{"age", "height"})
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, err := table.EquivalenceClasses(context.Background(), []string{"age", "height"})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != len(want) {
		t.Fatalf("classes = %d, want %d", len(classes), len(want))
	}
}

func TestClassIndexWaiterHonoursOwnContext(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	table := cancelTestTable()
	index := anonymize.NewClassIndex(table)

	// A waiter with an already-expired deadline must not block behind a
	// concurrent build for longer than its context allows.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure expiry
	start := time.Now()
	_, err := index.Classes(ctx, []string{"age"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired waiter blocked for %v", elapsed)
	}
}
