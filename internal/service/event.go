// Package service is the distributed data-service substrate: in-memory
// field-level datastores with access-control enforcement, HTTP servers
// exposing them, and an event log that hands every operation on personal
// data to one sink before the datastore answers.
//
// The paper targets "distributed data services" and proposes to "monitor the
// privacy risks during the lifetime of the service". This package provides
// the running system for that claim: datastore servers emit events for every
// create/read/delete, and package runtime replays those events onto the
// generated privacy LTS to track each user's privacy state and re-evaluate
// risk live.
package service

import (
	"sync"
	"time"

	"privascope/internal/core"
)

// Event records one operation on a user's personal data performed against a
// datastore or between actors.
type Event struct {
	// Seq is the position of the event in its log, starting at 1.
	Seq int64 `json:"seq"`
	// Time is when the event was recorded.
	Time time.Time `json:"time"`
	// Actor performed the operation.
	Actor string `json:"actor"`
	// Action is the kind of operation (collect, create, read, disclose,
	// anon, delete).
	Action core.Action `json:"action"`
	// Datastore is the datastore involved, if any.
	Datastore string `json:"datastore,omitempty"`
	// Service and Purpose describe why the operation happened, if known.
	Service string `json:"service,omitempty"`
	Purpose string `json:"purpose,omitempty"`
	// UserID identifies the data subject whose data was touched.
	UserID string `json:"user_id"`
	// Fields are the personal-data fields involved.
	Fields []string `json:"fields"`
	// Denied marks operations the access-control policy refused; they are
	// logged for audit but had no effect.
	Denied bool `json:"denied,omitempty"`
}

// Log numbers and timestamps each event and hands it to its sink before
// Append returns, and keeps none of them. A datastore appends before it
// answers its client, so a slow sink pushes back on the client and no event
// is lost or skipped.
type Log struct {
	mu     sync.Mutex
	nextID int64
	sink   func(Event)
	clock  func() time.Time
}

// NewLog returns an event log that hands every appended event to sink, which
// must not be nil. The log calls sink under its lock, one event at a time, so
// sink sees the events in Seq order.
func NewLog(sink func(Event)) *Log {
	return &Log{sink: sink, clock: time.Now}
}

// Append assigns a sequence number and timestamp to a copy of the event,
// hands the copy to the sink and returns it once the sink has.
func (l *Log) Append(ev Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	ev.Seq = l.nextID
	ev.Time = l.clock()
	ev.Fields = append([]string(nil), ev.Fields...)
	l.sink(ev)
	return ev
}
