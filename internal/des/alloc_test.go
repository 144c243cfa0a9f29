package des

import "testing"

// TestScheduleExecuteAllocFree pins the calendar engine's steady-state
// schedule+pop cycle at (near) zero heap allocations per event: events live
// in the slab-backed Store with free-slot recycling, and the AtShardFn form
// takes a preallocated body instead of a closure. The calendar occasionally
// grows or reseeds a bucket as virtual time advances, so the budget is a
// small fraction of an allocation per event rather than exactly zero.
func TestScheduleExecuteAllocFree(t *testing.T) {
	e := NewEngine()
	remaining := 0
	var fn PhaseFn
	fn = func(a any, b int64, at Time) func() {
		if remaining > 0 {
			remaining--
			e.AtShardFn(0, at+1e-6, fn, nil, 0)
		}
		return nil
	}
	run := func(n int) {
		remaining = n
		e.AtShardFn(0, e.Now()+1e-6, fn, nil, 0)
		for e.Step() {
		}
	}
	run(20000) // warm the slab store and calendar buckets to working size

	const perRun = 200
	allocs := testing.AllocsPerRun(100, func() { run(perRun) })
	perEvent := allocs / (perRun + 1)
	t.Logf("schedule+pop allocs/event = %.4f", perEvent)
	if perEvent > 0.05 {
		t.Fatalf("schedule+pop allocates %.3f per event at steady state, want <= 0.05", perEvent)
	}
}
