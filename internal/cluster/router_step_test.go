package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"privascope/internal/core"
	"privascope/internal/proptest"
	"privascope/internal/service"
)

// The tests in this file drive the router's transition function with scripted
// events: no HTTP, no goroutines, no clock. An effect is checked as the value
// step returns, and a delivery's outcome is whatever posted event the script
// feeds back.

// stepHarness is a router state over two nodes, a and b, with one-frame
// windows and two-event frames.
type stepHarness struct {
	t  *testing.T
	st routerState
}

func newStepHarness(t *testing.T, nodes ...string) *stepHarness {
	t.Helper()
	ring, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[string]string)
	for _, n := range nodes {
		urls[n] = "http://" + n
	}
	tuning := routerTuning{batchEvents: 2, maxInFlight: 1, maxRetries: 8}
	return &stepHarness{t: t, st: newRouterState(urls, tuning, ring)}
}

// step feeds one event and returns a copy of the effects.
func (h *stepHarness) step(ev any) []effect {
	return slices.Clone(h.st.step(ev))
}

// events returns n events of distinct users the ring places on node.
func (h *stepHarness) events(node string, n int) []service.Event {
	var out []service.Event
	for i := 0; len(out) < n; i++ {
		if id := fmt.Sprintf("user-%d", i); h.st.ring.Owner(id) == node {
			out = append(out, service.Event{UserID: id, Action: core.ActionCollect, Seq: int64(len(out))})
		}
	}
	return out
}

// send feeds a SendBatch call.
func (h *stepHarness) send(events ...service.Event) (*sendCall, []effect) {
	c := &sendCall{events: events}
	return c, h.step(c)
}

// posts returns the delivery attempts among effects.
func posts(effects []effect) []effect {
	var out []effect
	for _, e := range effects {
		if e.kind == effPost {
			out = append(out, e)
		}
	}
	return out
}

// indices lists the stream indices of frames.
func indices(frames []cutFrame) []int64 {
	var out []int64
	for _, f := range frames {
		out = append(out, f.idx)
	}
	return out
}

// evictWithEverythingOwed stages case (a): an eviction of b arrives with a
// sequence on the wire, frames waiting in the window — one past maxInFlight
// may wait — a Send blocked because the frame its event completes finds no
// room, and an event buffered.
func evictWithEverythingOwed(t *testing.T) (*stepHarness, *sendCall) {
	h := newStepHarness(t, "a", "b")
	ev := h.events("b", 9)
	if _, effs := h.send(ev[0], ev[1]); len(posts(effs)) != 1 || !slices.Equal(indices(posts(effs)[0].frames), []int64{0}) {
		t.Fatalf("the first frame did not go on the wire alone: %+v", effs)
	}
	h.send(ev[2], ev[3], ev[4], ev[5]) // frames 1 and 2 wait
	h.send(ev[6])                      // buffered
	blocked, effs := h.send(ev[7], ev[8])
	if blocked.answered || blocked.taken != 0 || len(effs) != 0 {
		t.Fatalf("a Send whose frame finds no room was taken: taken %d, effects %+v", blocked.taken, effs)
	}

	begin := &changeCall{phase: phaseBegin, kind: ChangeEvict, node: "b"}
	effs = h.step(begin)
	if begin.err != nil {
		t.Fatal(begin.err)
	}
	if len(effs) == 0 || effs[0].kind != effAbort || effs[0].node != "b" {
		t.Fatalf("the eviction did not abort b's request in flight first: %+v", effs)
	}
	if !blocked.answered || blocked.err != nil || blocked.taken != 2 {
		t.Fatalf("the blocked Send was not released by the cancel: answered %v, err %v, taken %d", blocked.answered, blocked.err, blocked.taken)
	}
	// The aborted attempt reports back: nothing of its sequence was accepted.
	if effs := h.step(posted{node: "b", err: context.Canceled}); len(posts(effs)) != 0 {
		t.Fatalf("a cancelled sender posted again: %+v", effs)
	}
	return h, blocked
}

// TestStepEvictionOwesFramesInStreamOrder is case (a): after the cancel the
// sender owes exactly the frames it had cut — the sequence that was on the
// wire, the ones in the window, and the one the blocked Send completed — in
// stream order, and the blocked Send is released.
func TestStepEvictionOwesFramesInStreamOrder(t *testing.T) {
	h, _ := evictWithEverythingOwed(t)
	b := h.st.sender("b")
	if got := indices(b.queue); !slices.Equal(got, []int64{0, 1, 2, 3}) || b.inFlight != 0 {
		t.Fatalf("b owes frames %v (%d in flight), want [0 1 2 3] and none in flight", got, b.inFlight)
	}
	if len(b.buf) != 1 {
		t.Fatalf("b buffers %d events, want the blocked Send's last one", len(b.buf))
	}
	for _, f := range b.queue {
		if f.events != 2 {
			t.Fatalf("owed frame %d carries %d events, want 2", f.idx, f.events)
		}
	}
}

// TestStepFailedEvictionResumesTheStream is case (b): the eviction of case (a)
// fails after its seal. The same stream resumes — the owed frames go out as
// one sequence from the first of them — and after one delivery nothing is
// owed.
func TestStepFailedEvictionResumesTheStream(t *testing.T) {
	h, _ := evictWithEverythingOwed(t)
	seal := &flushCall{kind: flushSeal}
	h.step(seal)
	if !seal.answered || seal.err != nil {
		t.Fatalf("the seal is still waiting with nothing in flight: answered %v, err %v", seal.answered, seal.err)
	}
	effs := h.step(&changeCall{phase: phaseAbort, kind: ChangeEvict, node: "b"})
	p := posts(effs)
	if len(p) != 1 || p[0].node != "b" || p[0].attempt != 0 || !slices.Equal(indices(p[0].frames), []int64{0, 1, 2, 3, 4}) {
		t.Fatalf("the failed eviction resumed %+v, want b's owed frames 0..4 as one new sequence", p)
	}
	h.step(posted{node: "b", accepted: 5})
	b := h.st.sender("b")
	if b.cancelled || len(b.queue) != 0 || len(b.buf) != 0 {
		t.Fatalf("after one delivery b is cancelled=%v with %d frames and %d events left", b.cancelled, len(b.queue), len(b.buf))
	}
	if s := h.st.stats; s.FramesSent != 5 || s.EventsSent != 9 || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 5 frames / 9 events sent", s)
	}
}

// TestStep429TrimsTheSequence is case (c): a 429 that accepted one frame of a
// two-frame sequence leaves the other at the head of the queue, and the retry
// — whose Frame-Base header is its first frame's index — starts at frame 1.
func TestStep429TrimsTheSequence(t *testing.T) {
	h := newStepHarness(t, "only")
	h.st.window = 4
	_, effs := h.send(h.events("only", 4)...)
	p := posts(effs)
	if len(p) != 1 || !slices.Equal(indices(p[0].frames), []int64{0, 1}) {
		t.Fatalf("one SendBatch of two frames posted %+v, want one two-frame sequence", p)
	}
	effs = h.step(posted{node: "only", accepted: 1, rejected: true, err: errors.New("saturated (429)")})
	s := h.st.sender("only")
	if got := indices(s.queue); !slices.Equal(got, []int64{1}) || s.inFlight != 1 {
		t.Fatalf("queue after the 429 = %v (%d in flight), want [1] still in flight", got, s.inFlight)
	}
	p = posts(effs)
	if len(p) != 1 || p[0].attempt != 1 || p[0].frames[0].idx != 1 || len(p[0].frames) != 1 {
		t.Fatalf("the retry posted %+v, want attempt 1 of frame 1 alone", p)
	}
	if st := h.st.stats; st.FramesSent != 1 || st.EventsSent != 2 || st.Rejected429 != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want frame 0 credited once, one rejection, one retry", st)
	}
}

// TestStepIdleSenderCutsAtOnce: a sender whose wire is idle cuts whatever it
// buffers in the step that takes it; one with a sequence on the wire batches
// until that sequence's outcome, which sends what is queued first and then the
// buffer. A Flush while busy cuts the buffer into the window, so it rides the
// next sequence.
func TestStepIdleSenderCutsAtOnce(t *testing.T) {
	h := newStepHarness(t, "only")
	ev := h.events("only", 4)
	s := h.st.sender("only")

	_, effs := h.send(ev[0])
	if p := posts(effs); len(p) != 1 || !slices.Equal(indices(p[0].frames), []int64{0}) || p[0].frames[0].events != 1 {
		t.Fatalf("a send to an idle sender posted %+v, want its one-event frame 0 at once", p)
	}
	if _, effs := h.send(ev[1]); len(posts(effs)) != 0 || len(s.buf) != 1 {
		t.Fatalf("a send to a busy sender posted %+v and buffered %d events, want nothing posted and 1 buffered", posts(effs), len(s.buf))
	}
	p := posts(h.step(posted{node: "only", accepted: 1}))
	if len(p) != 1 || !slices.Equal(indices(p[0].frames), []int64{1}) || p[0].frames[0].events != 1 || len(s.buf) != 0 {
		t.Fatalf("the acknowledgement posted %+v, want the buffered event's frame 1", p)
	}

	h.send(ev[2])
	flush := &flushCall{}
	if effs := h.step(flush); len(posts(effs)) != 0 || !slices.Equal(indices(s.queue), []int64{1, 2}) || len(s.buf) != 0 {
		t.Fatalf("a Flush while busy posted %+v and left queue %v, want frame 2 cut into the window", posts(effs), indices(s.queue))
	}
	h.send(ev[3])
	p = posts(h.step(posted{node: "only", accepted: 1}))
	if len(p) != 1 || !slices.Equal(indices(p[0].frames), []int64{2}) || len(s.buf) != 1 || flush.answered {
		t.Fatalf("frame 1's acknowledgement posted %+v with %d buffered, flush answered %v; want the flushed frame 2 first, the later event still buffered",
			p, len(s.buf), flush.answered)
	}
	p = posts(h.step(posted{node: "only", accepted: 1}))
	if !flush.answered || flush.err != nil {
		t.Fatalf("the flush is unanswered (%v) or failed (%v) with its frame delivered", flush.answered, flush.err)
	}
	if len(p) != 1 || !slices.Equal(indices(p[0].frames), []int64{3}) {
		t.Fatalf("frame 2's acknowledgement posted %+v, want the buffered event's frame 3", p)
	}
	h.step(posted{node: "only", accepted: 1})
	if st := h.st.stats; st.FramesSent != 4 || st.EventsSent != 4 {
		t.Fatalf("stats = %+v, want 4 one-event frames sent", st)
	}
}

// TestStepNoEventWaitsForAClockProperty: the router has no timer, so no
// buffered event may depend on one. Random scripts of sends to random owners,
// user flushes and delivery outcomes — all accepted, part accepted, a 429 or
// an error — over small frames and windows leave, after every step, no sender
// that is not cancelled with nothing on the wire or queued and events
// buffered: such a sender would wait for a step that never comes. Once
// everything is acknowledged every taken event is sent or counted dropped,
// with no Flush.
func TestStepNoEventWaitsForAClockProperty(t *testing.T) {
	proptest.Run(t, func(seed int64, rng *rand.Rand) error {
		nodes := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		ring, err := NewRing(nodes)
		if err != nil {
			return err
		}
		urls := make(map[string]string)
		for _, n := range nodes {
			urls[n] = "http://" + n
		}
		tuning := routerTuning{batchEvents: 1 + rng.Intn(4), maxInFlight: 1 + rng.Intn(3), maxRetries: 2 + rng.Intn(3)}
		st := newRouterState(urls, tuning, ring)
		stranded := func(when string) error {
			for _, s := range st.senders {
				if !s.cancelled && st.room(s) && s.inFlight == 0 && len(s.queue) == 0 && len(s.buf) > 0 {
					return fmt.Errorf("%s: sender %q is idle with %d events buffered (batch %d, window %d)",
						when, s.name, len(s.buf), st.batch, st.window)
				}
			}
			return nil
		}
		busy := func() []*sender {
			var out []*sender
			for _, s := range st.senders {
				if s.inFlight > 0 {
					out = append(out, s)
				}
			}
			return out
		}
		var sends []*sendCall
		var flushes []*flushCall
		seq := int64(0)
		for op := 0; op < 48; op++ {
			var what string
			switch k, b := rng.Intn(4), busy(); {
			case k == 0:
				c := &flushCall{}
				flushes = append(flushes, c)
				what = fmt.Sprintf("op %d, a flush", op)
				st.step(c)
			case k == 1 || len(b) == 0:
				c := &sendCall{events: make([]service.Event, 1+rng.Intn(2*st.batch+1))}
				for i := range c.events {
					seq++
					c.events[i] = service.Event{UserID: fmt.Sprintf("u%d", rng.Intn(12)), Action: core.ActionCollect, Seq: seq}
				}
				sends = append(sends, c)
				what = fmt.Sprintf("op %d, a send of %d events", op, len(c.events))
				st.step(c)
			default:
				s := b[rng.Intn(len(b))]
				p := posted{node: s.name, accepted: s.inFlight}
				switch rng.Intn(4) {
				case 1:
					p.accepted, p.err = rng.Intn(s.inFlight), errors.New("connection reset")
				case 2:
					p.accepted, p.rejected = rng.Intn(s.inFlight+1), true
					if p.accepted < s.inFlight {
						p.err = errors.New("saturated (429)")
					}
				case 3:
					p.accepted, p.err = 0, errors.New("ingest returned 503")
				}
				what = fmt.Sprintf("op %d, %q's outcome %+v", op, s.name, p)
				st.step(p)
			}
			if err := stranded(what); err != nil {
				return err
			}
		}
		for guard := 0; ; guard++ {
			b := busy()
			if len(b) == 0 {
				break
			}
			if guard == 10000 {
				return fmt.Errorf("still delivering after %d acknowledgements", guard)
			}
			st.step(posted{node: b[0].name, accepted: b[0].inFlight})
			if err := stranded("acknowledging everything"); err != nil {
				return err
			}
		}
		taken := int64(0)
		for i, c := range sends {
			if !c.answered || c.err != nil || c.taken != len(c.events) {
				return fmt.Errorf("send %d: answered %v, err %v, %d of %d events taken with nothing in flight", i, c.answered, c.err, c.taken, len(c.events))
			}
			taken += int64(c.taken)
		}
		for i, c := range flushes {
			if !c.answered {
				return fmt.Errorf("flush %d unanswered with nothing in flight", i)
			}
		}
		if got := st.stats.EventsSent + st.stats.DroppedEvents; got != taken {
			return fmt.Errorf("%d events sent + %d dropped = %d, want the %d taken", st.stats.EventsSent, st.stats.DroppedEvents, got, taken)
		}
		return nil
	})
}
