package runtime

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"privascope/internal/lts"
	"privascope/internal/risk"
)

// UserSnapshot is the portable per-user monitor state: everything another
// monitor needs to continue assessing the user's event stream exactly where
// this one stopped. It is the unit of state handoff when cluster ownership
// moves between nodes (internal/cluster): the profile rebuilds the findings
// index on the importing side, State resumes the LTS cursor, and the two
// cumulative counters make loss detectable — if a handoff chain ever dropped
// an accepted event or an alert, the final owner's counters would fall short
// of a single monitor's.
type UserSnapshot struct {
	// Profile is the user's registered risk profile.
	Profile risk.UserProfile
	// State is the user's current privacy state in the model.
	State lts.StateID
	// Applied is the cumulative number of events applied for this user,
	// carried across handoffs (not reset when the user moves to a new
	// monitor).
	Applied int64
	// Alerts is the user's cumulative alert cursor: how many alerts this
	// user's stream has raised across every monitor that has owned it.
	Alerts int64
}

// ExportUser snapshots the user's current monitor state without disturbing
// it. The second return is false when the user is not registered. The
// snapshot's profile is the caller's own copy.
func (m *Monitor) ExportUser(userID string) (UserSnapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at, ok := m.users[userID]
	if !ok {
		return UserSnapshot{}, false
	}
	snap := m.snapshot(&m.slab[at])
	p := &snap.Profile
	p.ConsentedServices, p.Sensitivities = slices.Clone(p.ConsentedServices), maps.Clone(p.Sensitivities)
	return snap, true
}

// snapshot builds the user's snapshot from its record. The caller holds m.mu.
func (m *Monitor) snapshot(u *user) UserSnapshot {
	profile := m.assessments.Profile(u.profile)
	profile.ID = u.id
	return UserSnapshot{Profile: profile, State: m.lts.Graph.StateAt(u.state), Applied: u.applied, Alerts: u.alerts}
}

// ExportUsers snapshots, in one pass under one lock acquisition, every
// registered user route assigns a destination, grouped by that destination
// and in no particular order within a group — the batch form a membership
// change uses to pick the users whose owner moved and sort them by new owner.
// route runs with the monitor locked: it must be a quick pure function of the
// ID (a ring lookup) and must not call back into the monitor. Unlike
// ExportUser's, each profile's slice and map are the monitor's own, shared by
// every user of the profile: the caller must treat them as read-only.
func (m *Monitor) ExportUsers(route func(userID string) (dest string, ok bool)) map[string][]UserSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]UserSnapshot)
	for i := range m.slab {
		if dest, ok := route(m.slab[i].id); ok {
			out[dest] = append(out[dest], m.snapshot(&m.slab[i]))
		}
	}
	return out
}

// RemoveUsers stops tracking the users, dropping their cursors, profiles and
// counters, under one lock acquisition. Alerts already raised stay in this
// monitor's log — they happened here; a handoff moves the users' future, not
// their history. It returns how many of the users were registered.
func (m *Monitor) RemoveUsers(userIDs []string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for _, id := range userIDs {
		at, ok := m.users[id]
		if !ok {
			continue
		}
		last := len(m.slab) - 1
		m.slab[at] = m.slab[last]
		m.users[m.slab[at].id] = at
		m.slab[last] = user{}
		m.slab = m.slab[:last]
		delete(m.users, id)
		removed++
	}
	return removed
}

// ImportUser registers the user from a snapshot, resuming their cursor at the
// snapshot state instead of the initial state. The snapshot is validated
// against this monitor's model before any state is touched: the profile must
// be well-formed, the state must exist in the LTS, and the cumulative counters
// must be non-negative — a snapshot from a different model (or a corrupted
// handoff frame that slipped past the codec) is rejected, never half-applied.
// Importing an already-registered user overwrites their state; imports are
// idempotent, so a retried handoff is harmless.
func (m *Monitor) ImportUser(snap UserSnapshot) error {
	return m.ImportUsers(context.Background(), []UserSnapshot{snap})
}

// ImportUsers is ImportUser for a batch — one handoff chunk — under
// one lock acquisition. Every snapshot is validated and its profile shape
// resolved before any user is touched, so an invalid snapshot anywhere in the
// batch installs nothing from it; nor does a ctx that is done by then. A
// profile is validated once, when the monitor first sees its record.
func (m *Monitor) ImportUsers(ctx context.Context, snaps []UserSnapshot) error {
	for i := range snaps {
		if err := m.checkSnapshot(&snaps[i]); err != nil {
			return err
		}
	}
	return m.install(ctx, snaps)
}

// checkSnapshot validates a snapshot against this monitor's model.
func (m *Monitor) checkSnapshot(snap *UserSnapshot) error {
	if snap.Profile.ID == "" {
		return fmt.Errorf("runtime: import: snapshot has no user ID")
	}
	if _, ok := m.lts.Graph.Index(snap.State); !ok {
		return fmt.Errorf("runtime: import of user %q: state %q is not in the model", snap.Profile.ID, snap.State)
	}
	if snap.Applied < 0 || snap.Alerts < 0 {
		return fmt.Errorf("runtime: import of user %q: negative cursor (applied %d, alerts %d)",
			snap.Profile.ID, snap.Applied, snap.Alerts)
	}
	return nil
}
