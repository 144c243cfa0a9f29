package chaos

import (
	"charmgo/internal/des"
)

// Detector defaults: rounds every 2 ms of virtual time, with a 1.5 ms
// ack deadline, so rounds never overlap and a crash is noticed at most
// one period plus one timeout (~3.5 ms) after it strikes.
const (
	DefaultHeartbeatPeriod  des.Time = 2e-3
	DefaultHeartbeatTimeout des.Time = 1.5e-3
)

// detector is a virtual-time heartbeat failure detector hosted on PE 0
// (plans never crash PE 0). Each round it pings every other PE with a
// shard-local probe; a live PE's commit schedules an ack back; a global
// deadline event then reports the first PE that failed to ack.
//
// No wall clock is consulted anywhere: pings, acks, and deadlines are all
// virtual-time events with latencies from the machine model, so detection
// is deterministic and identical on all three backends. The control messages
// themselves are modeled as zero-cost (they do not occupy PE compute
// time) — the idealization a dedicated monitoring thread would justify.
type detector struct {
	ctrl    *Controller
	period  des.Time
	timeout des.Time
	alpha   des.Time
	rounds  int
}

func newDetector(c *Controller, period, timeout des.Time) *detector {
	if period <= 0 {
		period = DefaultHeartbeatPeriod
	}
	if timeout <= 0 {
		timeout = DefaultHeartbeatTimeout
	}
	return &detector{ctrl: c, period: period, timeout: timeout,
		alpha: des.Time(c.rt.Machine().Config().Alpha)}
}

// globalAt schedules a global event no earlier than the engine's safe
// horizon. From a shard commit at tc the target tc+2α already clears the
// parallel backend's scheduling window, so the clamp is a safety net, and
// EngineHorizon is deterministic, so both backends agree on the instant.
func (d *detector) globalAt(t des.Time, fn func()) {
	if hz := des.EngineHorizon(d.ctrl.rt.Engine()); hz > t {
		t = hz
	}
	d.ctrl.rt.Engine().At(t, fn)
}

// start arms the first round one period into the run.
func (d *detector) start() {
	d.ctrl.rt.Engine().At(d.period, d.tick)
}

// tick runs one heartbeat round and schedules the next. The chain is
// persistent: it keeps observing through recoveries, which is what lets
// a crash landing mid-restore be detected and folded into the in-flight
// recovery instead of going unnoticed until the application resumes.
// The round's ack vector and epoch are captured per tick, so acks from a
// round that straddles a rollback write into an abandoned slice and its
// deadline no-ops on the epoch check.
func (d *detector) tick() {
	rt := d.ctrl.rt
	if rt.Exited() || d.ctrl.err != nil {
		return // chain ends; the engine may drain
	}
	d.rounds++
	eng := rt.Engine()
	mach := rt.Machine()
	now := rt.Now()
	n := rt.NumPEs()
	acks := make([]bool, n)
	epoch := rt.Epoch()

	const hbBytes = 16
	for pe := 1; pe < n; pe++ {
		pe := pe
		pingAt := now + maxTime(mach.NetDelay(0, pe, hbBytes), d.alpha)
		eng.AtShardFn(rt.ShardOf(pe), pingAt, des.ClosurePhase, func() func() {
			return func() {
				// A dead PE never acks; that silence is the signal.
				if rt.PEDead(pe) || d.ctrl.err != nil {
					return
				}
				ackAt := rt.Now() + maxTime(mach.NetDelay(pe, 0, hbBytes), 2*d.alpha)
				d.globalAt(ackAt, func() { acks[pe] = true })
			}
		}, 0)
	}

	d.globalAt(now+d.timeout, func() {
		if d.ctrl.err != nil || rt.Exited() || rt.Epoch() != epoch {
			return
		}
		for pe := 1; pe < n; pe++ {
			if !acks[pe] {
				d.ctrl.failureDetected(pe, rt.Now())
				return
			}
		}
	})

	eng.At(now+d.period, d.tick)
}

func maxTime(a, b des.Time) des.Time {
	if a > b {
		return a
	}
	return b
}
