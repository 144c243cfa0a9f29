package des

import (
	"container/heap"
	"fmt"
)

// Heap is the original binary-heap sequential executor, retained as the
// reference implementation: the calendar-queue Sequential must produce the
// exact (timestamp, sequence) pop order this engine does (the differential
// tests enforce it), and the scale benchmarks measure the calendar engine's
// speedup against it in the same process, which makes the recorded ratio
// host-independent. It keeps its own container/heap store rather than
// Store, so the differential tests compare two independent queues.
type Heap struct {
	now      Time
	seq      uint64
	heap     eventHeap
	stopped  bool
	executed uint64
	sink     TraceSink
}

// NewHeapEngine returns the reference binary-heap engine with the clock at
// zero.
func NewHeapEngine() *Heap {
	return &Heap{}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Now returns the current virtual time.
func (e *Heap) Now() Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Heap) Pending() int { return len(e.heap) }

// GlobalHorizon returns the current time: the heap engine never has work in
// flight.
func (e *Heap) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Heap) Executed() uint64 { return e.executed }

// push stamps ev with the next sequence number and queues it. Scheduling
// in the past, or at NaN, panics: it would silently reorder causality.
func (e *Heap) push(ev *Event) {
	if !(ev.At >= e.now) {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", ev.At, e.now))
	}
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.heap, ev)
}

// At schedules fn to run at absolute virtual time t.
func (e *Heap) At(t Time, fn func()) { e.push(&Event{At: t, Shard: -1, Fn: fn}) }

// AtShardFn schedules a two-phase event; phase and commit run back to
// back.
func (e *Heap) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) {
	e.push(&Event{At: t, Shard: shard, Phase: fn, A: a, B: b})
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Heap) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) {
	e.push(&Event{At: t, Shard: shard, Commit: fn, A: a, B: b})
}

// After schedules fn to run d seconds from now.
func (e *Heap) After(d Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Heap) Stop() { e.stopped = true }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink.
func (e *Heap) SetTraceSink(s TraceSink) { e.sink = s }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Heap) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*Event)
	e.now = ev.At
	e.executed++
	if ev.Fn != nil {
		ev.Fn()
		return true
	}
	if e.sink != nil {
		e.sink.PhaseStart(ev.Shard, ev.At)
	}
	if ev.Commit != nil {
		ev.Commit(ev.A, ev.B, ev.At)
	} else if commit := ev.Phase(ev.A, ev.B, ev.At); commit != nil {
		commit()
	}
	if e.sink != nil {
		e.sink.PhaseDone(ev.Shard, ev.At)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Heap) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event).
func (e *Heap) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].At <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
