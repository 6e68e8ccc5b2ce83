package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a test moves it.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

// TestOpenLoopDueTimes: ticks are due on the fixed schedule whatever the
// system under test does. A 35 ms stall in tick 2 must not move any due time;
// the overdue ticks fire back to back without sleeping, each charged its
// lateness, and the schedule is met again once caught up.
func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	const interval = 10 * time.Millisecond
	var dues, firedAt []time.Duration
	maxLag := runOpenLoop(clk, start, interval, 8, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		firedAt = append(firedAt, clk.now.Sub(start))
		if i == 2 {
			clk.now = clk.now.Add(35 * time.Millisecond) // the system stalls
		}
	})
	for i, due := range dues {
		if want := time.Duration(i) * interval; due != want {
			t.Errorf("tick %d due at %v, want %v", i, due, want)
		}
	}
	// Tick 2 fired on time at 20 ms and returned at 55 ms: ticks 3, 4 and 5
	// (due 30, 40, 50) all fire at 55 ms; tick 6 (due 60) is on time again.
	wantFired := []time.Duration{0, 10, 20, 55, 55, 55, 60, 70}
	for i, want := range wantFired {
		if firedAt[i] != want*time.Millisecond {
			t.Errorf("tick %d fired at %v, want %v", i, firedAt[i], want*time.Millisecond)
		}
	}
	if want := 25 * time.Millisecond; maxLag != want {
		t.Errorf("max lag %v, want %v (tick 3, due at 30 ms, fired at 55 ms)", maxLag, want)
	}
	// Slept before ticks 1 and 2 (10 ms each), 6 (5 ms) and 7 (10 ms); never
	// while behind.
	wantSleeps := []time.Duration{10, 10, 5, 10}
	if len(clk.sleeps) != len(wantSleeps) {
		t.Fatalf("slept %v, want %v ms", clk.sleeps, wantSleeps)
	}
	for i, want := range wantSleeps {
		if clk.sleeps[i] != want*time.Millisecond {
			t.Errorf("sleep %d was %v, want %v", i, clk.sleeps[i], want*time.Millisecond)
		}
	}
}
