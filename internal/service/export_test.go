package service

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"time"

	"privascope/internal/schema"
)

// SetClock overrides the time source; intended for tests.
func (l *Log) SetClock(clock func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clock = clock
}

// Events returns a copy of all recorded events in order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Delete removes the given fields (all when empty) of a user's record.
func (c *Client) Delete(ctx context.Context, userID, purpose string, fields []string) error {
	query := ""
	if len(fields) > 0 {
		query = "fields=" + strings.Join(fields, ",")
	}
	resp, err := c.do(ctx, http.MethodDelete, "/records/"+userID, purpose, query, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	return nil
}

// Definition returns the datastore's schema definition.
func (d *Datastore) Definition() schema.Datastore { return d.def }

// Users returns the IDs of users with at least one stored field, sorted.
func (d *Datastore) Users() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.records))
	for u := range d.records {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// FieldsOf returns the fields currently stored for the user, sorted.
func (d *Datastore) FieldsOf(userID string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	record := d.records[userID]
	out := make([]string, 0, len(record))
	for f := range record {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
