package des

import (
	"fmt"
	"slices"
)

// The sequential engine's event store and queue, designed so the
// steady-state schedule→pop cycle allocates nothing:
//
//   - Events live in a slab ([]slot) recycled through an intrusive free
//     list; a Handle is a (slot index, generation) pair, so minting one
//     does not allocate and a recycled slot safely invalidates old handles.
//   - The pending set is a calendar queue keyed on virtual femtoseconds.
//     A span of fixed-width buckets covers the near future; events beyond
//     the span wait in an overflow list ("far") that reseeds — and retunes
//     the bucket width to the population's spread — each time the span
//     drains. Pushes into a future bucket are O(1) appends; a bucket is
//     sorted once when it opens; events landing in the already-open bucket
//     go through a small binary heap. Exact (timestamp, sequence)
//     comparisons decide order everywhere, so femtosecond truncation
//     collisions are harmless and the pop order is bit-identical to the
//     reference binary-heap engine's.

const (
	fsPerSec   = 1e15 // femtosecond resolution of the bucket key
	calBuckets = 1024
	// defaultWidthFS starts buckets at 1µs — the scale of the machine
	// models' network latencies — until the first reseed retunes it.
	defaultWidthFS = uint64(1e9)
	// maxWidthFS keeps span arithmetic (bucket count × width) overflow-free.
	maxWidthFS = uint64(1) << 62 / calBuckets
)

// toFS converts a timestamp to femtoseconds, saturating (Forever and
// anything else past the uint64 range map to the maximum key). The
// conversion is monotone, which is all bucket placement needs; ordering
// within and across buckets is decided by exact (at, seq) comparison.
func toFS(t Time) uint64 {
	f := float64(t) * fsPerSec
	if f >= 18446744073709549568.0 { // largest float64 below 2^64
		return ^uint64(0)
	}
	return uint64(f)
}

const (
	slotFree uint8 = iota
	slotQueued
	slotCancelled // lazily reclaimed when its queue position drains
)

// slot is one event's storage in the slab.
type slot struct {
	at    Time
	fn    func()   // global body
	pfn   PhaseFn  // sharded two-phase body
	cfn   CommitFn // sharded commit-only body
	a     any
	b     int64
	seq   uint64
	gen   uint32
	next  int32 // free-list link while free
	shard int32
	state uint8
}

// ordEnt is an event's sort key plus slot id, copied out of the slab so
// sorting and sifting touch a compact contiguous array.
type ordEnt struct {
	at  Time
	seq uint64
	id  int32
}

func entLess(x, y ordEnt) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func entCmp(x, y ordEnt) int {
	if entLess(x, y) {
		return -1
	}
	if entLess(y, x) {
		return 1
	}
	return 0
}

// Sequential is the single-threaded deterministic event executor.
// The zero value is not usable; call NewEngine.
type Sequential struct {
	now      Time
	seq      uint64
	stopped  bool
	executed uint64
	sink     TraceSink
	probe    Probe

	slots []slot
	free  int32 // free-list head, -1 when empty
	count int   // scheduled, uncancelled events

	// Calendar state. buckets[cur] is open: its contents were sorted into
	// drain when it opened, and later arrivals for its time range sit in
	// curHeap. buckets[cur+1:] hold ring events; far holds everything past
	// the span.
	width    uint64 // fs per bucket
	spanBase uint64 // fs at buckets[0]'s start
	openEnd  uint64 // fs one past the open bucket's range
	spanEnd  uint64 // fs one past the last bucket's range
	cur      int    // open bucket index (-1 right after a reseed)
	buckets  [][]int32
	ring     int // events in buckets[cur+1:] (including cancelled)
	drain    []ordEnt
	drainPos int
	curHeap  []ordEnt
	far      []int32
}

// NewEngine returns a sequential engine with the clock at zero.
func NewEngine() *Sequential {
	e := &Sequential{
		free:    -1,
		width:   defaultWidthFS,
		buckets: make([][]int32, calBuckets),
	}
	e.openEnd = e.width
	e.spanEnd = uint64(calBuckets) * e.width
	return e
}

// Now returns the current virtual time.
func (e *Sequential) Now() Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Sequential) Pending() int { return e.count }

// GlobalHorizon returns the earliest time a global event may be scheduled
// without reordering work already underway. The sequential engine never has
// work in flight, so its horizon is the current time.
func (e *Sequential) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Sequential) Executed() uint64 { return e.executed }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. Install it before Run; the zero-sink path is a nil check.
func (e *Sequential) SetTraceSink(s TraceSink) { e.sink = s }

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe. Install it before Run; the zero-probe path is a nil
// check per event.
func (e *Sequential) SetProbe(p Probe) { e.probe = p }

// live reports whether the packed handle id refers to a still-scheduled
// event.
func (e *Sequential) live(id uint64) bool {
	idx := int(id >> 32)
	if idx >= len(e.slots) {
		return false
	}
	s := &e.slots[idx]
	return s.gen == uint32(id) && s.state == slotQueued
}

// alloc takes a slot from the free list (or grows the slab) and stamps it
// with the event's time, shard, and the next sequence number.
func (e *Sequential) alloc(t Time, shard int32) int32 {
	var id int32
	if e.free >= 0 {
		id = e.free
		e.free = e.slots[id].next
	} else {
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	s := &e.slots[id]
	s.at = t
	s.seq = e.seq
	e.seq++
	s.shard = shard
	s.state = slotQueued
	return id
}

// reclaim returns a drained or cancelled slot to the free list.
func (e *Sequential) reclaim(id int32) {
	s := &e.slots[id]
	s.fn, s.pfn, s.cfn, s.a = nil, nil, nil, nil
	s.state = slotFree
	s.next = e.free
	e.free = id
}

func (e *Sequential) handle(id int32) Handle {
	return Handle{eng: e, id: uint64(id)<<32 | uint64(e.slots[id].gen)}
}

// push files a freshly allocated slot into the calendar.
func (e *Sequential) push(id int32) {
	e.count++
	s := &e.slots[id]
	fs := toFS(s.at)
	if fs < e.openEnd {
		e.heapPush(ordEnt{at: s.at, seq: s.seq, id: id})
		return
	}
	// A saturated span end means the last bucket is a catch-all: fs keys at
	// the saturation point still belong inside the span.
	if fs < e.spanEnd || e.spanEnd == ^uint64(0) {
		b := int((fs - e.spanBase) / e.width)
		if b >= len(e.buckets) {
			b = len(e.buckets) - 1
		}
		e.buckets[b] = append(e.buckets[b], id)
		e.ring++
		return
	}
	e.far = append(e.far, id)
}

func (e *Sequential) heapPush(x ordEnt) {
	h := append(e.curHeap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.curHeap = h
}

func (e *Sequential) heapPop() ordEnt {
	h := e.curHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && entLess(h[l], h[m]) {
			m = l
		}
		if r < n && entLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.curHeap = h
	return top
}

// openBucket sorts a bucket's live contents into the drain run.
func (e *Sequential) openBucket(ids []int32) {
	e.drain = e.drain[:0]
	e.drainPos = 0
	for _, id := range ids {
		s := &e.slots[id]
		if s.state == slotCancelled {
			e.reclaim(id)
			continue
		}
		e.drain = append(e.drain, ordEnt{at: s.at, seq: s.seq, id: id})
	}
	slices.SortFunc(e.drain, entCmp)
}

// advanceBucket moves to the next non-empty ring bucket and opens it.
// Callers guarantee ring > 0.
func (e *Sequential) advanceBucket() {
	for {
		e.cur++
		if e.cur >= len(e.buckets) {
			panic("des: calendar ring accounting broken")
		}
		if e.cur == len(e.buckets)-1 {
			// The tail bucket's range runs to the span end (which may be
			// saturated — see push), not just one width past its start.
			e.openEnd = e.spanEnd
		} else {
			e.openEnd = e.spanBase + uint64(e.cur+1)*e.width
		}
		ids := e.buckets[e.cur]
		if len(ids) == 0 {
			continue
		}
		e.ring -= len(ids)
		e.buckets[e.cur] = ids[:0]
		e.openBucket(ids)
		return
	}
}

// reseed rebuilds the span around the far population once the current span
// has fully drained, retuning the bucket width so the population spreads
// across the buckets.
func (e *Sequential) reseed() {
	// Pass 1: drop cancelled entries, find the population's fs range.
	live := e.far[:0]
	minFS, maxFS := ^uint64(0), uint64(0)
	for _, id := range e.far {
		s := &e.slots[id]
		if s.state == slotCancelled {
			e.reclaim(id)
			continue
		}
		fs := toFS(s.at)
		if fs < minFS {
			minFS = fs
		}
		if fs > maxFS {
			maxFS = fs
		}
		live = append(live, id)
	}
	e.far = live
	if len(live) == 0 {
		return
	}
	width := (maxFS-minFS)/uint64(len(e.buckets)) + 1
	if width > maxWidthFS {
		width = maxWidthFS
	}
	e.width = width
	e.spanBase = minFS
	e.spanEnd = minFS + uint64(len(e.buckets))*width
	if e.spanEnd < minFS { // saturate on wraparound
		e.spanEnd = ^uint64(0)
	}
	e.cur = -1
	e.openEnd = e.spanBase
	// Pass 2: distribute what the new span covers; the rest stays far.
	rest := e.far[:0]
	for _, id := range e.far {
		fs := toFS(e.slots[id].at)
		if fs < e.spanEnd || e.spanEnd == ^uint64(0) {
			b := int((fs - e.spanBase) / e.width)
			if b >= len(e.buckets) {
				b = len(e.buckets) - 1
			}
			e.buckets[b] = append(e.buckets[b], id)
			e.ring++
		} else {
			rest = append(rest, id)
		}
	}
	e.far = rest
	e.advanceBucket()
}

// peek normalizes the calendar until a head event is visible and returns
// it without consuming. src reports where it sits (0 drain, 1 curHeap).
func (e *Sequential) peek() (ent ordEnt, src int, ok bool) {
	for {
		for e.drainPos < len(e.drain) {
			d := e.drain[e.drainPos]
			if e.slots[d.id].state == slotCancelled {
				e.reclaim(d.id)
				e.drainPos++
				continue
			}
			break
		}
		for len(e.curHeap) > 0 {
			h := e.curHeap[0]
			if e.slots[h.id].state == slotCancelled {
				e.heapPop()
				e.reclaim(h.id)
				continue
			}
			break
		}
		hasD := e.drainPos < len(e.drain)
		hasH := len(e.curHeap) > 0
		switch {
		case hasD && hasH:
			if entLess(e.drain[e.drainPos], e.curHeap[0]) {
				return e.drain[e.drainPos], 0, true
			}
			return e.curHeap[0], 1, true
		case hasD:
			return e.drain[e.drainPos], 0, true
		case hasH:
			return e.curHeap[0], 1, true
		}
		if e.ring > 0 {
			e.advanceBucket()
			continue
		}
		if len(e.far) > 0 {
			e.reseed()
			continue
		}
		return ordEnt{}, 0, false
	}
}

// popID removes and returns the earliest live event's slot id.
func (e *Sequential) popID() (int32, bool) {
	ent, src, ok := e.peek()
	if !ok {
		return 0, false
	}
	if src == 0 {
		e.drainPos++
	} else {
		e.heapPop()
	}
	return ent.id, true
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Sequential) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	id := e.alloc(t, -1)
	e.slots[id].fn = fn
	e.push(id)
	return e.handle(id)
}

// AtShardFn schedules a two-phase event; the sequential engine ignores the
// shard and runs phase and commit back to back, which makes the sharded
// path behaviourally identical to a plain At.
func (e *Sequential) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	id := e.alloc(t, int32(shard))
	s := &e.slots[id]
	s.pfn, s.a, s.b = fn, a, b
	e.push(id)
	return e.handle(id)
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Sequential) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	id := e.alloc(t, int32(shard))
	s := &e.slots[id]
	s.cfn, s.a, s.b = fn, a, b
	e.push(id)
	return e.handle(id)
}

// After schedules fn to run d seconds from now.
func (e *Sequential) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. The slot is reclaimed lazily when its
// calendar position drains.
func (e *Sequential) Cancel(h Handle) {
	if h.eng != e || !e.live(h.id) {
		return
	}
	s := &e.slots[h.id>>32]
	s.state = slotCancelled
	s.gen++
	s.fn, s.pfn, s.cfn, s.a = nil, nil, nil, nil
	e.count--
}

// Stop makes Run return after the currently executing event completes.
func (e *Sequential) Stop() { e.stopped = true }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Sequential) Step() bool {
	id, ok := e.popID()
	if !ok {
		return false
	}
	e.count--
	s := &e.slots[id]
	at, shard := s.at, int(s.shard)
	fn, pfn, cfn := s.fn, s.pfn, s.cfn
	a, b := s.a, s.b
	s.fn, s.pfn, s.cfn, s.a = nil, nil, nil, nil
	s.gen++
	s.state = slotFree
	s.next = e.free
	e.free = id
	e.now = at
	e.executed++
	if fn != nil {
		fn()
	} else {
		if e.sink != nil {
			e.sink.PhaseStart(shard, at)
		}
		if cfn != nil {
			cfn(a, b, at)
		} else if commit := pfn(a, b, at); commit != nil {
			commit()
		}
		if e.sink != nil {
			e.sink.PhaseDone(shard, at)
		}
	}
	if e.probe != nil {
		e.probe.EventExecuted(shard, at, e.count)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Sequential) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event). Events scheduled during execution
// are honoured if they fall within the horizon.
func (e *Sequential) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		ent, _, ok := e.peek()
		if !ok || ent.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
