// Package service is the distributed data-service substrate: in-memory
// field-level datastores with access-control enforcement, HTTP servers
// exposing them, and an event log that hands every operation on personal
// data to its subscribers.
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

// Log is a thread-safe event log with subscription support: it numbers and
// timestamps each event and hands it to the current subscribers, and keeps
// none of them. The zero value is ready to use.
type Log struct {
	mu     sync.Mutex
	nextID int64
	subs   map[int]chan Event
	subSeq int
	clock  func() time.Time
}

// NewLog returns an empty event log.
func NewLog() *Log {
	return &Log{subs: make(map[int]chan Event), clock: time.Now}
}

// Append assigns a sequence number and timestamp to the event and delivers
// it to subscribers. Subscribers with full buffers miss the event rather than
// blocking the writer; an event appended with no subscriber reaches no one.
func (l *Log) Append(ev Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	ev.Seq = l.nextID
	if l.clock != nil {
		ev.Time = l.clock()
	} else {
		ev.Time = time.Now()
	}
	ev.Fields = append([]string(nil), ev.Fields...)
	for _, ch := range l.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	return ev
}

// NextBatch collects the next batch of events from a subscription channel:
// it blocks until at least one event is available (or the channel is
// closed), then drains up to max-1 further events without blocking. A nil
// return means the channel is closed and drained. Consumers that process
// events in bulk — privaserve's live loop — use it to absorb bursts in one
// pass instead of one channel receive per event.
func NextBatch(events <-chan Event, max int) []Event {
	if max <= 0 {
		max = 64
	}
	ev, ok := <-events
	if !ok {
		return nil
	}
	batch := make([]Event, 1, max)
	batch[0] = ev
	for len(batch) < max {
		select {
		case ev, ok := <-events:
			if !ok {
				return batch
			}
			batch = append(batch, ev)
		default:
			return batch
		}
	}
	return batch
}

// Subscribe returns a channel receiving future events and a cancel function
// that must be called to release the subscription. The buffer bounds how many
// undelivered events may be pending before new ones are dropped for this
// subscriber.
func (l *Log) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.subs == nil {
		l.subs = make(map[int]chan Event)
	}
	id := l.subSeq
	l.subSeq++
	ch := make(chan Event, buffer)
	l.subs[id] = ch
	cancel := func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if existing, ok := l.subs[id]; ok {
			delete(l.subs, id)
			close(existing)
		}
	}
	return ch, cancel
}
