// Package parsim is a charmvet test fixture for the //charmvet:parsim
// waiver. The waiver is honored only in the engine core, internal/optsim,
// which spawns the phase workers of both parallel backends; this fixture
// package stands in for it, so the waiver is honored here exactly as it is
// there. The unwaived spawns still get findings, proving the waiver covers
// only annotated lines.
package parsim

import "charmgo/internal/charm"

func use(fns ...any) {}

func register() { use(onWork) }

func onWork(obj any, ctx *charm.Ctx, msg any) {
	launchWorkers()
	(&engine{}).launch(func() {})
}

// launchWorkers mirrors a plain function spawn: the waiver is honored
// because this package stands in for the engine core.
func launchWorkers() {
	//charmvet:parsim (phase workers execute provably independent events)
	go func() {}()

	go func() {}() // want `go statement`
}

// engine mirrors the core's worker pool: the pool starts lazily on the
// launch path every pop runs through, as a method-value spawn.
type engine struct {
	jobs chan func()
}

func (e *engine) launch(job func()) {
	if e.jobs == nil {
		e.jobs = make(chan func(), 1)
		//charmvet:parsim (phase workers execute shard-disjoint events)
		go e.worker()
		go e.worker() // want `go statement`
	}
	e.jobs <- job
}

func (e *engine) worker() {
	for job := range e.jobs {
		job()
	}
}
