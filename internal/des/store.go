package des

import (
	"fmt"
	"slices"
)

// Store is the event store and queue that Sequential and the parallel
// engine core in internal/optsim share. It is built so the steady-state
// push→pop cycle allocates nothing:
//
//   - Events live in a slab ([]Event) recycled through a free-id stack, so
//     an event is addressed by its slot id and scheduling does not
//     allocate once the slab has grown to the working set.
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
//
// Events leave the store only by being popped, in (timestamp, sequence)
// order. The zero Store is empty and ready to use.
type Store struct {
	slots []Event
	free  []int32 // ids of free slots
	seq   uint64  // the next sequence number
	count int     // queued events

	// Calendar state. buckets[cur] is open: its contents were sorted into
	// drain when it opened, and later arrivals for its time range sit in
	// curHeap. buckets[cur+1:] hold ring events; far holds everything past
	// the span. buckets is nil until the first push lays out the span.
	width    uint64 // fs per bucket
	spanBase uint64 // fs at buckets[0]'s start
	openEnd  uint64 // fs one past the open bucket's range
	spanEnd  uint64 // fs one past the last bucket's range
	cur      int    // open bucket index (-1 right after a reseed)
	buckets  [][]int32
	ring     int // events in buckets[cur+1:]
	drain    []ordEnt
	drainPos int
	curHeap  []ordEnt
	far      []int32
}

// Event is one scheduled event as the Store holds it. Exactly one body is
// set: Fn for a global event (Shard -1), Phase or Commit for a sharded
// one, which Phase and Commit receive with (A, B, At).
type Event struct {
	At     Time
	seq    uint64 // stamped at scheduling: the tie-break among equal timestamps
	Shard  int
	Fn     func()
	Phase  PhaseFn
	Commit CommitFn
	A      any
	B      int64
}

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

// Len returns the number of queued events.
func (s *Store) Len() int { return s.count }

// Push queues ev, stamping it with the next sequence number, and returns
// its slot id and that number. A timestamp before now — or NaN, which
// would switch this very check off for the rest of the run once it became
// the clock — panics: it would silently reorder causality.
func (s *Store) Push(now Time, ev Event) (id int32, seq uint64) {
	id, p := s.add(now, ev.At, ev.Shard)
	p.Fn, p.Phase, p.Commit, p.A, p.B = ev.Fn, ev.Phase, ev.Commit, ev.A, ev.B
	return id, p.seq
}

// add is Push without the body: it queues a slot for an event at time at
// on shard and returns it for the caller to fill in the body, which spares
// Sequential's hot path a copy of the whole Event. The pointer is valid
// until the next push or pop.
func (s *Store) add(now, at Time, shard int) (int32, *Event) {
	if !(at >= now) {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, now))
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, Event{})
		id = int32(len(s.slots) - 1)
	}
	p := &s.slots[id]
	p.At, p.Shard, p.seq = at, shard, s.seq
	s.seq++
	s.count++
	s.file(ordEnt{at: at, seq: p.seq, id: id})
	return id, p
}

// Event returns the queued event in slot id. The pointer is valid until
// the next Push or Pop.
func (s *Store) Event(id int32) *Event { return &s.slots[id] }

// Peek returns the earliest queued event's slot id without removing it;
// ok is false when the store is empty.
func (s *Store) Peek() (id int32, ok bool) {
	ent, _, ok := s.peek()
	return ent.id, ok
}

// Pop removes the earliest queued event, frees its slot and returns it.
func (s *Store) Pop() (Event, bool) {
	id, ok := s.popID()
	if !ok {
		return Event{}, false
	}
	ev := s.slots[id]
	s.release(id)
	return ev, true
}

// popID removes the earliest queued event from the calendar and returns
// its slot id; the caller reads the slot and then releases it.
func (s *Store) popID() (int32, bool) {
	ent, src, ok := s.peek()
	if !ok {
		return 0, false
	}
	if src == 0 {
		s.drainPos++
	} else {
		s.heapPop()
	}
	s.count--
	return ent.id, true
}

// release clears a popped slot's references and returns it to the free
// stack.
func (s *Store) release(id int32) {
	ev := &s.slots[id]
	ev.Fn, ev.Phase, ev.Commit, ev.A = nil, nil, nil, nil
	s.free = append(s.free, id)
}

// file places a queued event in the calendar.
func (s *Store) file(ent ordEnt) {
	fs := toFS(ent.at)
	if fs < s.openEnd {
		s.heapPush(ent)
		return
	}
	// A saturated span end means the last bucket is a catch-all: fs keys at
	// the saturation point still belong inside the span.
	if fs < s.spanEnd || s.spanEnd == ^uint64(0) {
		b := int((fs - s.spanBase) / s.width)
		if b >= len(s.buckets) {
			b = len(s.buckets) - 1
		}
		s.buckets[b] = append(s.buckets[b], ent.id)
		s.ring++
		return
	}
	if s.buckets == nil {
		// First push into a zero Store: open bucket 0 at time zero.
		s.width = defaultWidthFS
		s.buckets = make([][]int32, calBuckets)
		s.openEnd = s.width
		s.spanEnd = uint64(calBuckets) * s.width
		s.file(ent)
		return
	}
	s.far = append(s.far, ent.id)
}

func (s *Store) heapPush(x ordEnt) {
	h := append(s.curHeap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.curHeap = h
}

func (s *Store) heapPop() {
	h := s.curHeap
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
	s.curHeap = h
}

// openBucket sorts a bucket's contents into the drain run.
func (s *Store) openBucket(ids []int32) {
	s.drain = s.drain[:0]
	s.drainPos = 0
	for _, id := range ids {
		ev := &s.slots[id]
		s.drain = append(s.drain, ordEnt{at: ev.At, seq: ev.seq, id: id})
	}
	slices.SortFunc(s.drain, entCmp)
}

// advanceBucket moves to the next non-empty ring bucket and opens it.
// Callers guarantee ring > 0.
func (s *Store) advanceBucket() {
	for {
		s.cur++
		if s.cur >= len(s.buckets) {
			panic("des: calendar ring accounting broken")
		}
		if s.cur == len(s.buckets)-1 {
			// The tail bucket's range runs to the span end (which may be
			// saturated — see file), not just one width past its start.
			s.openEnd = s.spanEnd
		} else {
			s.openEnd = s.spanBase + uint64(s.cur+1)*s.width
		}
		ids := s.buckets[s.cur]
		if len(ids) == 0 {
			continue
		}
		s.ring -= len(ids)
		s.buckets[s.cur] = ids[:0]
		s.openBucket(ids)
		return
	}
}

// reseed rebuilds the span around the far population once the current span
// has fully drained, retuning the bucket width so the population spreads
// across the buckets. Callers guarantee far is non-empty.
func (s *Store) reseed() {
	minFS, maxFS := ^uint64(0), uint64(0)
	for _, id := range s.far {
		fs := toFS(s.slots[id].At)
		minFS = min(minFS, fs)
		maxFS = max(maxFS, fs)
	}
	s.width = min((maxFS-minFS)/uint64(len(s.buckets))+1, maxWidthFS)
	s.spanBase = minFS
	s.spanEnd = minFS + uint64(len(s.buckets))*s.width
	if s.spanEnd < minFS { // saturate on wraparound
		s.spanEnd = ^uint64(0)
	}
	s.cur = -1
	s.openEnd = s.spanBase
	// Distribute what the new span covers; the rest stays far.
	rest := s.far[:0]
	for _, id := range s.far {
		fs := toFS(s.slots[id].At)
		if fs < s.spanEnd || s.spanEnd == ^uint64(0) {
			b := int((fs - s.spanBase) / s.width)
			if b >= len(s.buckets) {
				b = len(s.buckets) - 1
			}
			s.buckets[b] = append(s.buckets[b], id)
			s.ring++
		} else {
			rest = append(rest, id)
		}
	}
	s.far = rest
	s.advanceBucket()
}

// peek normalizes the calendar until a head event is visible and returns
// it without consuming. src reports where it sits (0 drain, 1 curHeap).
func (s *Store) peek() (ent ordEnt, src int, ok bool) {
	for {
		hasD := s.drainPos < len(s.drain)
		hasH := len(s.curHeap) > 0
		switch {
		case hasD && hasH:
			if entLess(s.drain[s.drainPos], s.curHeap[0]) {
				return s.drain[s.drainPos], 0, true
			}
			return s.curHeap[0], 1, true
		case hasD:
			return s.drain[s.drainPos], 0, true
		case hasH:
			return s.curHeap[0], 1, true
		}
		if s.ring > 0 {
			s.advanceBucket()
			continue
		}
		if len(s.far) > 0 {
			s.reseed()
			continue
		}
		return ordEnt{}, 0, false
	}
}
