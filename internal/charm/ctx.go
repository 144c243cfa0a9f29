package charm

import (
	"fmt"
	"math"
	"sync"

	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// effect is one global effect, buffered in an element handler's phase
// until the delivery's commit applies it (see Ctx.record). Sends, local
// enqueues and contributions are data; Defer and the rare structural and
// load-balancing effects are closures.
type effect struct {
	kind uint8    // fxFunc, fxSend, fxEnqueue or fxContribute
	i    int32    // fxContribute: index into fxBuf.red
	m    *message // fxSend, fxEnqueue
	at   des.Time // fxSend, fxContribute
	fn   func()   // fxFunc
}

const (
	fxFunc       = iota // run fn
	fxSend              // rt.send(m, at)
	fxEnqueue           // local broadcast delivery: enqueue m on m.srcPE
	fxContribute        // merge the contribution into its reduction at at
)

// contribution holds the arguments of one Contribute until it applies.
type contribution struct {
	el      *element
	gen     uint64
	value   any
	reducer Reducer
	cb      Callback
}

// fxBuf is a phase's effect buffer. It is pooled, not kept per PE: only
// phases in flight hold one, so idle virtual PEs cost nothing.
type fxBuf struct {
	fx  []effect
	red []contribution
}

var fxPool = sync.Pool{New: func() any { return new(fxBuf) }}

// Ctx is the execution context of a running entry method (or PE handler).
// It accumulates the method's modeled compute cost and stamps outgoing
// messages at the virtual moment they are sent.
type Ctx struct {
	rt      *Runtime
	pe      int
	elem    *element // nil in PE handlers and the main chare
	start   des.Time // event start time (the engine clock when created)
	elapsed des.Time // cost accumulated so far in this execution
	loadFS  int64    // speed-normalized compute so far, integer femtoseconds
	exitReq bool
	cause   uint64 // trace ID of the send that triggered this execution

	// buf is non-nil exactly while an element handler's phase runs: its
	// effects buffer there until the delivery's commit. Every other
	// context (PE handlers, driver and boot code, effects being flushed)
	// is a commit context and applies each effect at once.
	buf *fxBuf

	// Coast-forward replay mode (optimistic backend, speculation.go): the
	// handler re-executes a committed delivery purely to reconstruct chare
	// state. Every global effect is dropped where it is emitted, sends
	// build no messages, and location resolution replays the recorded
	// answers in res[resIdx:] instead of reading the live caches.
	replay bool
	res    []int32
	resIdx int

	// extraEls lists elements beyond elem this execution mutated through
	// LocalInvoke (optimistic backend only): their retained images cannot
	// replay a multi-element delivery, so the commit invalidates them.
	extraEls []*element
}

func (rt *Runtime) newCtx(pe int, el *element) *Ctx {
	return rt.newCtxAt(pe, el, rt.eng.Now())
}

// newCtxAt creates a context with an explicit event start time; the
// parallel backend uses it because the engine clock reads as the window
// start while phases run concurrently.
func (rt *Runtime) newCtxAt(pe int, el *element, at des.Time) *Ctx {
	return &Ctx{rt: rt, pe: pe, elem: el, start: at}
}

// takeCtx returns the PE's recycled delivery context (or a fresh one),
// initialized for an execution starting at `at`. The spare is strictly
// shard-local: taken during this PE's phase or commit and released at the
// end of the delivery commit, under the same commit(i) ≺ phase(i+1)
// ordering that protects p.q. Contexts are only valid during the handler
// and its commit, so recycling cannot expose one execution's state to
// another.
func (p *peState) takeCtx(rt *Runtime, el *element, at des.Time) *Ctx {
	ctx := p.ctxSpare
	if ctx == nil {
		ctx = &Ctx{}
	} else {
		p.ctxSpare = nil
	}
	*ctx = Ctx{rt: rt, pe: p.id, elem: el, start: at}
	return ctx
}

// releaseCtx recycles a delivery context at the end of its commit.
func (p *peState) releaseCtx(ctx *Ctx) {
	*ctx = Ctx{}
	//charmvet:retain (this IS the pool: the spare slot the next delivery draws from)
	p.ctxSpare = ctx
}

// record is the one place an effect is dropped (coast-forward replay: the
// original committed long ago), buffered (an element handler's phase, so
// nothing it emits, an Insert included, is visible to the rest of the
// handler) or applied (a commit context). r carries a contribution.
func (c *Ctx) record(e effect, r *contribution) {
	switch b := c.buf; {
	case c.replay:
	case b != nil:
		if r != nil {
			e.i = int32(len(b.red))
			b.red = append(b.red, *r)
		}
		b.fx = append(b.fx, e)
	default:
		c.rt.apply(&e, r)
	}
}

// emitMsg records the send (or local enqueue) of m, stamped now.
func (c *Ctx) emitMsg(kind uint8, m *message) {
	//charmvet:retain (effect record: applied at this delivery's commit, before the Ctx and the message are recycled)
	c.record(effect{kind: kind, m: m, at: c.Now()}, nil)
}

// apply performs one effect; r carries a contribution's arguments.
func (rt *Runtime) apply(e *effect, r *contribution) {
	switch e.kind {
	case fxSend:
		rt.send(e.m, e.at)
	case fxEnqueue:
		rt.inflight++
		rt.enqueue(e.m, e.m.srcPE)
	case fxContribute:
		rt.contribute(r, e.at)
	default:
		e.fn()
	}
}

// flushFX applies the phase's effects in call order and recycles the
// buffer. The context is a commit context by then, so an effect that
// emits more (a Defer that sends) applies them at its own position.
func (c *Ctx) flushFX() {
	b := c.buf
	c.buf = nil
	for i := range b.fx {
		e := &b.fx[i]
		var r *contribution
		if e.kind == fxContribute {
			r = &b.red[e.i]
		}
		c.rt.apply(e, r)
	}
	clear(b.fx)
	clear(b.red)
	b.fx, b.red = b.fx[:0], b.red[:0]
	fxPool.Put(b)
}

// Defer runs fn after the current entry method's effects become globally
// visible: in an element handler, at the delivery's commit, after the
// effects emitted before it; in a PE handler or driver code, at once.
// Handlers that mutate state shared beyond their element (driver-level
// aggregates, error latches) must route those writes through Defer so the
// parallel backends can run handler bodies concurrently. The runtime's own
// closure effects (Insert, Destroy, Migrate, AtSync) take this path too.
func (c *Ctx) Defer(fn func()) { c.record(effect{kind: fxFunc, fn: fn}, nil) }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// MyPE returns the PE this execution runs on.
func (c *Ctx) MyPE() int { return c.pe }

// NumPEs returns the active PE count.
func (c *Ctx) NumPEs() int { return c.rt.activePEs }

// Index returns the executing element's array index.
func (c *Ctx) Index() Index {
	if c.elem == nil {
		return Index{}
	}
	return c.elem.key.idx
}

// Now returns the virtual time at the current point of the execution
// (event start plus cost charged so far).
func (c *Ctx) Now() des.Time { return c.start + c.elapsed }

// Charge adds compute cost: work is seconds on a dedicated PE at base
// frequency, scaled by the PE's current speed (DVFS, interference).
func (c *Ctx) Charge(work float64) {
	c.ChargeSeconds(c.rt.mach.ComputeTime(c.pe, work))
}

// ChargeWithCache charges work whose working set is ws bytes, applying the
// node's cache model with the given number of cache sharers.
func (c *Ctx) ChargeWithCache(work float64, ws int64, sharers int) {
	c.Charge(work * c.rt.mach.CacheFactor(ws, sharers))
}

// ChargeSeconds adds an absolute virtual duration, bypassing the speed
// model (used for fixed protocol costs). Both reject a NaN, infinite or
// negative duration, so runOne's panic names the handler on every backend.
func (c *Ctx) ChargeSeconds(d des.Time) {
	if !(d >= 0) || math.IsInf(float64(d), 1) {
		panic(fmt.Sprintf("charm: charge of %v s (durations must be finite and non-negative)", float64(d)))
	}
	c.elapsed += d
	c.chargeLoad(d)
}

// chargeLoad accrues a charge into the execution's load meter: integer
// femtoseconds, speed-normalized at charge time. The load database feeds
// the balancers, and a greedy assignment flips on a 1-ULP input change —
// so measured load must be bit-identical between a clean run and a
// rollback replay. Each charge's duration is translation-invariant (it
// depends on work, not on the clock), and integer sums are exact, so this
// meter is independent of message arrival order and of how charges group
// into executions; a float meter rounds differently per grouping.
func (c *Ctx) chargeLoad(d des.Time) {
	sp := c.rt.mach.PE(c.pe).Speed(c.rt.mach.Config().BaseFreqGHz)
	c.loadFS += int64(math.Round(float64(d) * sp * 1e15))
}

// chargeLoadWork accrues intrinsic work (seconds on a dedicated PE at
// base frequency) directly into the load meter, bypassing the PE speed
// model. Used for per-message overheads: the meter takes the uniform
// node-local floor cost — the part every message pays regardless of
// where the peer actually lives — so measured load is a pure function of
// the element's own behavior (its compute and its message counts) and
// never of its current placement.
// Placement-dependent load would make every greedy decision a function
// of the previous one, and placement could then never re-converge to the
// failure-free mapping after a disturbance (evacuation, shrink/expand) —
// which is what makes post-recovery digests byte-identical.
func (c *Ctx) chargeLoadWork(work float64) {
	c.loadFS += int64(math.Round(work * 1e15))
}

// SetPos records the element's spatial coordinates for geometric load
// balancers (ORB).
func (c *Ctx) SetPos(x, y, z float64) {
	if c.elem != nil {
		c.elem.pos = [3]float64{x, y, z}
		c.elem.hasPos = true
	}
}

// SendOpts tunes a send.
type SendOpts struct {
	// Bytes is the modeled payload size; 0 means the runtime estimates it
	// (pup.Size for Pupable payloads, a small default otherwise).
	Bytes int
	// Prio orders delivery: lower values run first (§IV-C prioritized
	// messages). Zero is the default priority.
	Prio int64
}

// prio is the send's priority; nil options mean the default priority.
func (o *SendOpts) prio() int64 {
	if o == nil {
		return prioDefault
	}
	return o.Prio
}

func (c *Ctx) msgSize(payload any, opts *SendOpts) int {
	if opts != nil && opts.Bytes > 0 {
		return opts.Bytes
	}
	if p, ok := payload.(pup.Pupable); ok {
		return pup.Size(p) + 32
	}
	return 64
}

// Send invokes entry method ep on element idx of arr asynchronously: the
// caller continues immediately (§II-B).
func (c *Ctx) Send(arr *Array, idx Index, ep EP, payload any) {
	c.SendOpt(arr, idx, ep, payload, nil)
}

// resolveFor prices a send's destination: the live location caches
// normally, the recorded answer during coast-forward replay — the caches
// may have learned newer hints since the delivery originally committed,
// and Now() must re-read identically. On the optimistic backend every
// phase-time answer is recorded (shard-locally, into the PE's reused
// buffer) so the delivery's commit can log it for future replay.
func (c *Ctx) resolveFor(dest elemKey) int {
	if c.replay {
		if c.resIdx >= len(c.res) {
			panic(fmt.Sprintf("charm: coast-forward replay of %v diverged: more sends than the committed execution recorded", c.elem.key))
		}
		dst := int(c.res[c.resIdx])
		c.resIdx++
		return dst
	}
	dst := c.rt.resolve(c.pe, dest)
	if c.buf != nil && c.rt.spec != nil {
		p := c.rt.pes[c.pe]
		p.resLog = append(p.resLog, int32(dst))
	}
	return dst
}

// SendOpt is Send with explicit size/priority options.
func (c *Ctx) SendOpt(arr *Array, idx Index, ep EP, payload any, opts *SendOpts) {
	size := c.msgSize(payload, opts)
	dest := elemKey{array: arr.id, idx: idx}
	m := c.sendMsg(c.resolveFor(dest), ep, payload, size, opts)
	if c.elem != nil {
		c.elem.msgsSent++
		c.elem.bytesSent += uint64(size)
		if c.rt.arrays[c.elem.key.array].opts.TrackComm {
			if c.elem.comm == nil {
				c.elem.comm = map[elemKey]uint64{}
			}
			c.elem.comm[dest] += uint64(size)
		}
	}
	if m != nil {
		m.dest, m.destPE = dest, -1
		c.emitMsg(fxSend, m)
	}
}

// SendPE invokes a PE-level handler on the destination PE.
func (c *Ctx) SendPE(pe int, h PEH, payload any, opts *SendOpts) {
	if m := c.sendMsg(pe, EP(h), payload, c.msgSize(payload, opts), opts); m != nil {
		m.destPE = pe
		c.emitMsg(fxSend, m)
	}
}

// sendMsg charges a send toward PE dst and returns its message to address
// and emit; nil in coast-forward replay, where only the charges remain.
// The clock takes the locality-aware cost, the load meter the uniform
// node-local floor (see chargeLoadWork).
func (c *Ctx) sendMsg(dst int, ep EP, payload any, size int, opts *SendOpts) *message {
	c.elapsed += c.rt.mach.SendOverheadTo(c.pe, dst)
	c.chargeLoadWork(c.rt.mach.Config().SendOverheadLocal)
	if c.replay {
		return nil
	}
	m := getMsg()
	m.ep, m.payload, m.size, m.prio, m.srcPE, m.cause = ep, payload, size, opts.prio(), c.pe, c.cause
	return m
}

// LocalInvoke runs an entry method on a local element synchronously within
// this execution (no messaging cost beyond the handler's own charges). It
// is the escape hatch libraries use for PE-local work; it panics if the
// element is not on this PE.
func (c *Ctx) LocalInvoke(arr *Array, idx Index, ep EP, payload any) {
	key := elemKey{array: arr.id, idx: idx}
	el, ok := c.rt.pes[c.pe].elems[key]
	if !ok {
		panic("charm: LocalInvoke on non-local element " + key.String())
	}
	if c.rt.spec != nil && el != c.elem {
		if c.replay {
			// Logged deliveries are single-element by construction (a
			// multi-element commit invalidates every touched image instead
			// of logging) — reaching another chare here is divergence.
			panic("charm: coast-forward replay diverged: LocalInvoke of " + key.String() + " during a logged single-element delivery")
		}
		if c.buf != nil {
			if sp := c.rt.specFor(c.pe); sp != nil {
				// Speculative execution is about to mutate a second chare;
				// make it restorable too so a rollback undoes the whole
				// execution.
				sp.touchElem(c.rt.spec, el)
			}
			c.noteExtra(el)
		} else {
			// Commit-context mutation (PE handlers, collective fan-out,
			// boot): not part of any logged phase, so the element's
			// retained image can no longer coast-forward past it.
			c.rt.spec.dropSave(el)
		}
	}
	sub := c.rt.newCtxAt(c.pe, el, c.start)
	sub.buf = c.buf // the nested execution's effects join the caller's, in call order
	sub.cause = c.cause
	sub.replay = c.replay
	sub.res, sub.resIdx = c.res, c.resIdx
	arr.handlers[ep](el.obj, sub, payload)
	c.elapsed += sub.elapsed
	c.loadFS += sub.loadFS
	c.resIdx = sub.resIdx
	if len(sub.extraEls) > 0 {
		// Nested LocalInvoke: the touched set must surface to the delivery
		// context the commit hook inspects.
		c.extraEls = append(c.extraEls, sub.extraEls...)
	}
	if sub.exitReq {
		c.exitReq = true
	}
}

// noteExtra records an element this execution mutated beyond its own,
// deduplicated (repeat LocalInvokes of one chare are common).
func (c *Ctx) noteExtra(el *element) {
	for _, e := range c.extraEls {
		if e == el {
			return
		}
	}
	c.extraEls = append(c.extraEls, el)
}

// Exit requests job termination (CkExit): the engine stops after this
// event completes.
func (c *Ctx) Exit() { c.exitReq = true }

// AtSync enters the load-balancing barrier (§III-A AtSync mode): the
// element pauses until the runtime has rebalanced and delivers
// ResumeFromSync (the array's ResumeEP).
func (c *Ctx) AtSync() {
	el := c.elem
	if el == nil {
		panic("charm: AtSync outside an array element")
	}
	arr := c.rt.arrays[el.key.array]
	if !arr.opts.UsesAtSync {
		panic("charm: AtSync on array declared without UsesAtSync: " + arr.name)
	}
	if el.atSync {
		return
	}
	el.atSync = true
	c.Defer(func() {
		c.rt.lbArrived++
		c.rt.maybeStartLB()
	})
}

// Migrate requests migration of the executing element to a specific PE
// (CkMigrateMe). The move happens after the current method returns.
func (c *Ctx) Migrate(toPE int) {
	el := c.elem
	if el == nil {
		panic("charm: Migrate outside an array element")
	}
	rt := c.rt
	from := el.pe
	if toPE == from {
		return
	}
	at := c.Now()
	c.Defer(func() { rt.atEpoch(at, func() { rt.moveElement(el, toPE, true) }) })
}

// Insert creates a new element of arr with the given initial state on this
// PE (dynamic insertion, used by AMR when refining). Messages already
// buffered at the element's home are flushed to it. The new element joins
// the creating element's current reduction generation, so in-progress and
// future reductions stay aligned across restructuring. From an element
// handler it applies at the commit: the rest of the handler sees, and
// prices its sends against, the tables as they were before it ran.
func (c *Ctx) Insert(arr *Array, idx Index, obj Chare) {
	gen, haveGen := uint64(0), false
	if c.elem != nil {
		gen, haveGen = c.elem.redGen, true
	}
	rt, pe := c.rt, c.pe
	c.Defer(func() {
		rt.insertElement(arr, idx, obj, pe, true)
		if haveGen {
			if el, ok := rt.pes[pe].elems[elemKey{array: arr.id, idx: idx}]; ok {
				el.redGen = gen
			}
		}
	})
}

// Destroy removes element idx of arr, which must live on this PE (used by
// AMR when coarsening). Destroying the executing element is allowed; the
// current method finishes normally.
func (c *Ctx) Destroy(arr *Array, idx Index) {
	if c.replay {
		// The destruction already committed (and dropped the target's
		// image); the element may no longer exist, and the effect would
		// be dropped anyway.
		return
	}
	key := elemKey{array: arr.id, idx: idx}
	el, ok := c.rt.pes[c.pe].elems[key]
	if !ok {
		panic("charm: Destroy of non-local element " + key.String())
	}
	rt := c.rt
	c.Defer(func() { rt.removeElement(el) })
}
