package runtime

import "privascope/internal/service"

// AssessmentCacheStats reports how many lookups of the monitor's assessment
// cache, by whoever shares it, were served from it versus assessed from
// scratch.
func (m *Monitor) AssessmentCacheStats() (hits, misses int64) {
	return m.assessments.Hits(), m.assessments.Misses()
}

// Watch consumes events from the channel until it is closed, observing each
// one. Events for unregistered users are counted but otherwise ignored. It
// returns the number of events observed. Run it in its own goroutine for
// live monitoring:
//
//	events, cancel := cluster.Log().Subscribe(128)
//	defer cancel()
//	go monitor.Watch(events)
func (m *Monitor) Watch(events <-chan service.Event) int {
	n := 0
	for ev := range events {
		n++
		_, _ = m.Observe(ev)
	}
	return n
}

// RemoveUser stops tracking the user, dropping their cursor, profile and
// counters. Alerts already raised stay in this monitor's log — they happened
// here; a handoff moves the user's future, not their history. It reports
// whether the user was registered.
func (m *Monitor) RemoveUser(userID string) bool {
	return m.RemoveUsers([]string{userID}) == 1
}
