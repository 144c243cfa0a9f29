package charm

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"charmgo/internal/des"
	"charmgo/internal/machine"
)

// allBackends lists the four engines a runtime can run on.
var allBackends = []string{"sequential", "heap", "parallel", "optimistic"}

// backendRT builds a runtime over a numPEs-node testbed (one PE per node,
// so every PE is its own shard on the parallel backends).
func backendRT(numPEs int, backend string) *Runtime {
	cfg := machine.Testbed(numPEs)
	cfg.Backend = backend
	return New(machine.New(cfg))
}

// sendLog is a TraceHooks recorder that logs every send with the PE the
// runtime priced it to, into the same log the test's Defer markers write.
// The hooks the effect-order handler cannot reach stay nil.
type sendLog struct {
	TraceHooks
	log *[]string
	ids uint64
}

func (s *sendLog) MsgSend(at des.Time, src, dst, size int, _ uint64) uint64 {
	*s.log = append(*s.log, fmt.Sprintf("send %d->%d at %.9f size %d", src, dst, float64(at), size))
	s.ids++
	return s.ids
}

func (s *sendLog) MsgRecv(des.Time, int, uint64, int)                      {}
func (s *sendLog) EntryBegin(des.Time, int, string, string, Index, uint64) {}
func (s *sendLog) EntryEnd(des.Time, int, string, string, Index, uint64)   {}

const (
	epFxGo EP = iota
	epFxLocal
	epFxSink
)

// runEffectOrder runs one handler that interleaves every kind of effect —
// Send, Defer, Contribute, Insert then a Send to the new index,
// LocalInvoke, and a Broadcast fanned out on PE 0 — and returns the
// commit-side log: each send as priced, and a Defer marker after each step
// that snapshots the global state the effects so far have changed. Markers
// also carry what the handler itself observed (its clock after each send,
// and whether the insert was visible), captured in the phase.
func runEffectOrder(t *testing.T, backend string) []string {
	t.Helper()
	rt := backendRT(4, backend)
	var log []string
	rt.SetTraceHooks(&sendLog{log: &log})
	var arr *Array
	var newIdx Index
	snap := func(tag string) string {
		_, inserted := rt.pes[0].elems[elemKey{array: arr.id, idx: newIdx}]
		contribs := 0
		if len(arr.redOpen) > 0 && arr.redOpen[0] != nil {
			contribs = arr.redOpen[0].count
		}
		return fmt.Sprintf("%s: sent=%d inflight=%d contribs=%d inserted=%v",
			tag, rt.Stats.MsgsSent, rt.inflight, contribs, inserted)
	}
	handlers := []Handler{
		epFxGo: func(obj Chare, ctx *Ctx, msg any) {
			ctx.Send(arr, Idx1(2), epFxSink, int64(1))
			now1 := ctx.Now()
			ctx.Defer(func() { log = append(log, snap(fmt.Sprintf("after send (now %.9f)", float64(now1)))) })
			ctx.Contribute(int64(1), SumI64, CallbackFunc(0, func(*Ctx, any) {}))
			ctx.Defer(func() { log = append(log, snap("after contribute")) })
			ctx.Insert(arr, newIdx, &counter{})
			newKey := elemKey{array: arr.id, idx: newIdx}
			_, visible := rt.pes[ctx.MyPE()].elems[newKey]
			priced := rt.resolve(ctx.MyPE(), newKey)
			ctx.Send(arr, newIdx, epFxSink, int64(2))
			now2 := ctx.Now()
			ctx.Defer(func() {
				log = append(log, snap(fmt.Sprintf("after insert+send (visible %v, priced to PE %d, now %.9f)", visible, priced, float64(now2))))
			})
			ctx.LocalInvoke(arr, Idx1(1), epFxLocal, nil)
			ctx.Defer(func() { log = append(log, snap("after local invoke")) })
			ctx.Broadcast(arr, epFxSink, int64(3), nil)
			now3 := ctx.Now()
			ctx.Defer(func() { log = append(log, snap(fmt.Sprintf("after broadcast (now %.9f)", float64(now3)))) })
		},
		epFxLocal: func(obj Chare, ctx *Ctx, msg any) {
			ctx.Send(arr, Idx1(3), epFxSink, int64(4))
			now := ctx.Now()
			ctx.Defer(func() { log = append(log, snap(fmt.Sprintf("inside local invoke (now %.9f)", float64(now)))) })
		},
		epFxSink: func(obj Chare, ctx *Ctx, msg any) {
			obj.(*counter).N += msg.(int64)
			ctx.Charge(1e-6)
		},
	}
	arr = rt.DeclareArray("fx", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	// The inserted index must have a home other than PE 0, so a send that
	// saw the insert would be priced differently from one that did not.
	for i := 4; ; i++ {
		if rt.homePE(elemKey{array: arr.id, idx: Idx1(i)}) != 0 {
			newIdx = Idx1(i)
			break
		}
	}
	arr.InsertOn(Idx1(0), &counter{}, 0)
	arr.InsertOn(Idx1(1), &counter{}, 0)
	arr.InsertOn(Idx1(2), &counter{}, 1)
	arr.InsertOn(Idx1(3), &counter{}, 2)
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(0), epFxGo, nil)
		log = append(log, "boot sent")
	})
	rt.Run()
	return log
}

// TestEffectOrderAcrossBackends pins one effect rule on all four engines:
// an element handler's effects apply at its commit, in call order, with
// LocalInvoke's effects at the call's position, and nothing the handler
// emits — an Insert included — is visible to the rest of the handler. The
// commit-side log, the priced destinations and the handler's clock must be
// identical on every backend.
func TestEffectOrderAcrossBackends(t *testing.T) {
	want := runEffectOrder(t, "sequential")
	// The delivery's commit on the sequential engine, with the handler's
	// observations (in parentheses) and send times cut: every effect in
	// call order, the insert between the contribution and the send to the
	// new index, LocalInvoke's effects at the call, the broadcast's sends to
	// PE 0's tree children and its two local enqueues (the pre-insert
	// elements on PE 0) last.
	wantOrder := []string{
		"send 0->0", // the boot send
		"boot sent",
		"send 0->2",
		"after send: sent=2 inflight=2 contribs=0 inserted=false",
		"after contribute: sent=2 inflight=2 contribs=1 inserted=false",
		"send 0->0", // routed at commit, where the insert has applied
		"after insert+send: sent=3 inflight=3 contribs=1 inserted=true",
		"send 0->1", // Idx1(3)'s home: PE 0 has no location hint for it
		"inside local invoke: sent=4 inflight=4 contribs=1 inserted=true",
		"after local invoke: sent=4 inflight=4 contribs=1 inserted=true",
		"send 0->1",
		"send 0->2",
		"after broadcast: sent=6 inflight=6 contribs=1 inserted=true",
	}
	paren := regexp.MustCompile(` \([^)]*\)`)
	var order []string
	for _, l := range want {
		if strings.HasPrefix(l, "send ") {
			l, _, _ = strings.Cut(l, " at ")
		}
		order = append(order, paren.ReplaceAllString(l, ""))
	}
	if len(order) < len(wantOrder) || !reflect.DeepEqual(order[:len(wantOrder)], wantOrder) {
		t.Fatalf("commit log:\n%s\nwant it to begin:\n%s", strings.Join(order, "\n"), strings.Join(wantOrder, "\n"))
	}
	// The rest of the handler saw the element tables as they were before it
	// ran: no element at the new index, and its send priced to its home.
	home := want[6]
	if !strings.Contains(home, "(visible false, priced to PE ") || strings.Contains(home, "priced to PE 0,") {
		t.Fatalf("Insert was visible to the rest of its handler: %s", home)
	}
	for _, be := range allBackends[1:] {
		if got := runEffectOrder(t, be); !reflect.DeepEqual(got, want) {
			t.Errorf("%s commit log differs from sequential:\n got: %s\nwant: %s", be,
				strings.Join(got, "\n      "), strings.Join(want, "\n      "))
		}
	}
}

// TestBadChargeNamesEntryMethod: a NaN, infinite or negative charge panics
// in the handler, so runOne's wrapper names the entry method, element and
// PE on every backend, rather than the bad time surfacing later as an
// engine scheduling error.
func TestBadChargeNamesEntryMethod(t *testing.T) {
	for _, be := range []string{"sequential", "parallel", "optimistic"} {
		for _, bad := range []struct {
			name   string
			charge func(ctx *Ctx)
		}{
			{"NaN work", func(ctx *Ctx) { ctx.Charge(math.NaN()) }},
			{"+Inf work", func(ctx *Ctx) { ctx.Charge(math.Inf(1)) }},
			{"NaN seconds", func(ctx *Ctx) { ctx.ChargeSeconds(des.Time(math.NaN())) }},
			{"-Inf seconds", func(ctx *Ctx) { ctx.ChargeSeconds(des.Time(math.Inf(-1))) }},
			{"negative seconds", func(ctx *Ctx) { ctx.ChargeSeconds(-1e-6) }},
		} {
			t.Run(be+"/"+bad.name, func(t *testing.T) {
				rt := backendRT(2, be)
				var arr *Array
				handlers := []Handler{
					0: func(obj Chare, ctx *Ctx, msg any) { ctx.Send(arr, Idx1(1), 1, nil) },
					1: func(obj Chare, ctx *Ctx, msg any) { bad.charge(ctx) },
				}
				arr = rt.DeclareArray("bad", func() Chare { return &counter{} }, handlers, ArrayOpts{})
				arr.InsertOn(Idx1(0), &counter{}, 0)
				arr.InsertOn(Idx1(1), &counter{}, 1)
				rt.Boot(func(ctx *Ctx) { ctx.Send(arr, Idx1(0), 0, nil) })
				defer func() {
					r := recover()
					msg := fmt.Sprint(r)
					const want = "charm: entry method 1 of bad" // then the index
					if r == nil || !strings.HasPrefix(msg, want) ||
						!strings.Contains(msg, " on PE 1 ") || !strings.Contains(msg, "charm: charge of") {
						t.Fatalf("panic = %q, want the wrapped charge error naming %q on PE 1", msg, want)
					}
				}()
				rt.Run()
			})
		}
	}
}
