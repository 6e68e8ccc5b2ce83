package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// fake so due-time accounting is checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// runOpenLoop fires ticks on a fixed schedule that does not slow when the
// system under test does: tick i is due at start + i*interval whatever
// happened before it, fire receives that due time (latencies count from it,
// so a stall charges every request it delayed), and a generator that has
// fallen behind fires the overdue ticks back to back until it has caught up.
// It returns how late the generator ran at worst.
func runOpenLoop(clk clock, start time.Time, interval time.Duration, ticks int, fire func(tick int, due time.Time)) (maxLag time.Duration) {
	for i := 0; i < ticks; i++ {
		due := start.Add(time.Duration(i) * interval)
		now := clk.Now()
		if now.Before(due) {
			clk.Sleep(due.Sub(now))
			now = clk.Now()
		}
		if lag := now.Sub(due); lag > maxLag {
			maxLag = lag
		}
		fire(i, due)
	}
	return maxLag
}
