package runtime

import (
	"context"
	"fmt"

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
// it. The second return is false when the user is not registered.
func (m *Monitor) ExportUser(userID string) (UserSnapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	u, ok := m.users[userID]
	if !ok {
		return UserSnapshot{}, false
	}
	return u.UserSnapshot, true
}

// ExportUsers snapshots, in one pass under one lock acquisition, every
// registered user route assigns a destination, grouped by that destination
// and in no particular order within a group — the batch form a membership
// change uses to pick the users whose owner moved and sort them by new owner.
// route runs with the monitor locked: it must be a quick pure function of the
// ID (a ring lookup) and must not call back into the monitor.
func (m *Monitor) ExportUsers(route func(userID string) (dest string, ok bool)) map[string][]UserSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]UserSnapshot)
	for id, u := range m.users {
		if dest, ok := route(id); ok {
			out[dest] = append(out[dest], u.UserSnapshot)
		}
	}
	return out
}

// RemoveUser stops tracking the user, dropping their cursor, profile and
// counters. Alerts already raised stay in this monitor's log — they happened
// here; a handoff moves the user's future, not their history. It reports
// whether the user was registered.
func (m *Monitor) RemoveUser(userID string) bool {
	return m.RemoveUsers([]string{userID}) == 1
}

// RemoveUsers is RemoveUser for a batch under one lock acquisition. It
// returns how many of the users were registered.
func (m *Monitor) RemoveUsers(userIDs []string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for _, id := range userIDs {
		if _, ok := m.users[id]; ok {
			delete(m.users, id)
			removed++
		}
	}
	return removed
}

// ImportUser is ImportUserContext with a background context.
func (m *Monitor) ImportUser(snap UserSnapshot) error {
	return m.ImportUserContext(context.Background(), snap)
}

// ImportUserContext registers the user from a snapshot, resuming their
// cursor at the snapshot state instead of the initial state. The snapshot is
// validated against this monitor's model before any state is touched: the
// profile must be well-formed, the state must exist in the LTS, and the
// cumulative counters must be non-negative — a snapshot from a different
// model (or a corrupted handoff frame that slipped past the codec) is
// rejected, never half-applied. Importing an already-registered user
// overwrites their state; imports are idempotent, so a retried handoff is
// harmless.
func (m *Monitor) ImportUserContext(ctx context.Context, snap UserSnapshot) error {
	return m.ImportUsers(ctx, []UserSnapshot{snap})
}

// ImportUsers is ImportUserContext for a batch — one handoff chunk — under
// one lock acquisition. Every snapshot is validated and its profile shape
// resolved before any user is touched, so an invalid snapshot anywhere in the
// batch installs nothing from it; nor does a ctx that is done by then.
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
	if err := snap.Profile.Validate(); err != nil {
		return fmt.Errorf("runtime: import of user %q: %w", snap.Profile.ID, err)
	}
	if !m.lts.Graph.HasState(snap.State) {
		return fmt.Errorf("runtime: import of user %q: state %q is not in the model", snap.Profile.ID, snap.State)
	}
	if snap.Applied < 0 || snap.Alerts < 0 {
		return fmt.Errorf("runtime: import of user %q: negative cursor (applied %d, alerts %d)",
			snap.Profile.ID, snap.Applied, snap.Alerts)
	}
	return nil
}
