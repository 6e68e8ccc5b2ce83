package runtime

import (
	"privascope/internal/core"
	"privascope/internal/lts"
)

// AssessmentCacheStats reports how many lookups of the monitor's assessment
// cache, by whoever shares it, were served from it versus assessed from
// scratch.
func (m *Monitor) AssessmentCacheStats() (hits, misses int64) {
	return m.assessments.Hits(), m.assessments.Misses()
}

// RemoveUser stops tracking the user, dropping their cursor, profile and
// counters. Alerts already raised stay in this monitor's log — they happened
// here; a handoff moves the user's future, not their history. It reports
// whether the user was registered.
func (m *Monitor) RemoveUser(userID string) bool {
	return m.RemoveUsers([]string{userID}) == 1
}

// CurrentState returns the user's current privacy state.
func (m *Monitor) CurrentState(userID string) (lts.StateID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.users[userID]
	if !ok {
		return "", false
	}
	return m.lts.Graph.StateAt(m.slab[at].state), true
}

// CurrentVector returns the user's current privacy state vector.
func (m *Monitor) CurrentVector(userID string) (core.StateVector, bool) {
	id, ok := m.CurrentState(userID)
	if !ok {
		return core.StateVector{}, false
	}
	return m.lts.Vector(id)
}

// AlertsFor returns the alerts concerning one user, nil when there are none.
func (m *Monitor) AlertsFor(userID string) []Alert {
	m.mu.Lock()
	var recs []alertRec
	for _, block := range m.alerts.blocks {
		for i := range block {
			if block[i].user == userID {
				recs = append(recs, block[i])
			}
		}
	}
	shapes := m.shapes.list
	m.mu.Unlock()
	if recs == nil {
		return nil
	}
	return m.build(recs, shapes)
}
