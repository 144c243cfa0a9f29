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
// host-independent.
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

// Event is a closure scheduled to run at a virtual time (heap engine form).
type Event struct {
	At    Time
	Fn    func()
	pfn   PhaseFn
	cfn   CommitFn
	a     any
	b     int64
	shard int // shard id of a sharded event (unused for globals)
	seq   uint64
	pos   int // heap index, -1 when popped or cancelled
}

// Live reports whether the event is still scheduled.
func (ev *Event) Live() bool { return ev.pos >= 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.pos = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.pos = -1
	*h = old[:n-1]
	return ev
}

// Now returns the current virtual time.
func (e *Heap) Now() Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Heap) Pending() int { return len(e.heap) }

// GlobalHorizon returns the current time: the heap engine never has work in
// flight.
func (e *Heap) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Heap) Executed() uint64 { return e.executed }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Heap) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{At: t, Fn: fn, seq: e.seq}
	e.seq++
	heap.Push(&e.heap, ev)
	return HandleFor(ev)
}

// AtShardFn schedules a two-phase event; phase and commit run back to
// back.
func (e *Heap) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{At: t, pfn: fn, a: a, b: b, shard: shard, seq: e.seq}
	e.seq++
	heap.Push(&e.heap, ev)
	return HandleFor(ev)
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Heap) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{At: t, cfn: fn, a: a, b: b, shard: shard, seq: e.seq}
	e.seq++
	heap.Push(&e.heap, ev)
	return HandleFor(ev)
}

// After schedules fn to run d seconds from now.
func (e *Heap) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Heap) Cancel(h Handle) {
	ev, ok := h.ev.(*Event)
	if !ok || ev == nil || ev.pos < 0 {
		return
	}
	heap.Remove(&e.heap, ev.pos)
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
		e.sink.PhaseStart(ev.shard, ev.At)
	}
	if ev.cfn != nil {
		ev.cfn(ev.a, ev.b, ev.At)
	} else if commit := ev.pfn(ev.a, ev.b, ev.At); commit != nil {
		commit()
	}
	if e.sink != nil {
		e.sink.PhaseDone(ev.shard, ev.At)
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
