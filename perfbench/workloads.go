package main

import (
	"fmt"
	"math/rand"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
)

// app is one declared workload instance, ready to run.
type app interface {
	// Run executes the app to completion and returns its digest summary:
	// the engine's executed-event count and the app's result, printed
	// with full float precision.
	Run(rt *charm.Runtime) (string, error)
}

// workload names one benchmark input: its machine, and how to declare the
// app (the app's New) from a seed.
type workload struct {
	Name string
	Why  string
	// PEs is the Testbed size; TinyPEs the self-test size.
	PEs, TinyPEs int
	// New declares the app's arrays and inserts every element.
	New func(rt *charm.Runtime, seed int64, tiny bool) (app, error)
}

var workloads = []workload{
	{
		Name: "phold",
		Why:  "finest grain: trivial handlers, so engines, delivery and the per-window GVT reduction do the work; narrow lookahead starves conservative windows",
		PEs:  16, TinyPEs: 4,
		New: newPhold,
	},
	{
		Name: "leanmd",
		Why:  "coarse LJ handlers; the only workload with LB decisions, migrations, location-miss forwarding and Time Warp rollbacks with restores and replays",
		PEs:  64, TinyPEs: 8,
		New: newLeanMD,
	},
	{
		Name: "stencil",
		Why:  "bulk-synchronous regular traffic with wide lookahead and large chare state: worker handoff helps, and state saving is pure image writes",
		PEs:  256, TinyPEs: 8,
		New: newStencil,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want phold, leanmd or stencil)", name)
}

// ---- phold: PDES/PHOLD at low lookahead ----

type pholdApp struct{ a *pdes.App }

func newPhold(rt *charm.Runtime, seed int64, tiny bool) (app, error) {
	cfg := pdes.Config{
		LPs: 256, EventsPerLP: 8, TargetEvents: 40000, Seed: seed,
		// alpha = lookahead / (lookahead + mean delay) ~ 0.012.
		Lookahead: 0.05, MeanDelay: 4.0,
	}
	if tiny {
		cfg.LPs, cfg.TargetEvents = 32, 2000
	}
	a, err := pdes.New(rt, cfg)
	if err != nil {
		return nil, err
	}
	return pholdApp{a}, nil
}

func (p pholdApp) Run(rt *charm.Runtime) (string, error) {
	res, err := p.a.Run()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("events=%d committed=%d windows=%d elapsed=%v maxvt=%v",
		rt.Engine().Executed(), res.Committed, res.Windows, res.Elapsed, res.MaxVT), nil
}

// ---- leanmd: LeanMD with greedy LB and atom migration ----

type leanmdApp struct{ a *leanmd.App }

func newLeanMD(rt *charm.Runtime, seed int64, tiny bool) (app, error) {
	cfg := leanmd.Config{
		CellsX: 6, CellsY: 6, CellsZ: 6, AtomsPerCell: 27,
		Steps: 10, LBPeriod: 5, MigratePeriod: 5,
		Gaussian: 6, PerInteractionWork: 300e-9, Seed: seed,
	}
	if tiny {
		cfg.CellsX, cfg.CellsY, cfg.CellsZ = 3, 3, 3
		cfg.AtomsPerCell, cfg.Steps, cfg.LBPeriod, cfg.MigratePeriod = 8, 4, 2, 2
	}
	rt.SetBalancer(lb.Greedy{})
	a, err := leanmd.New(rt, cfg)
	if err != nil {
		return nil, err
	}
	return leanmdApp{a}, nil
}

func (l leanmdApp) Run(rt *charm.Runtime) (string, error) {
	res, err := l.a.Run()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("events=%d atoms=%d elapsed=%v steps=%v energy=%v",
		rt.Engine().Executed(), res.Atoms, res.Elapsed, res.StepDone, res.Energy), nil
}

// ---- stencil: Stencil2D Jacobi ----

type stencilApp struct{ a *stencil.App }

// stencilTiles is the edge of the seeded source-term tile grid.
const stencilTiles = 16

func newStencil(rt *charm.Runtime, seed int64, tiny bool) (app, error) {
	cfg := stencil.Config{GridN: 2048, Chares: 16, Iters: 20}
	if tiny {
		cfg.GridN, cfg.Chares, cfg.Iters = 64, 4, 4
	}
	// The seed draws a piecewise-constant initial field over a tile grid
	// and the hot wall's temperature.
	rng := rand.New(rand.NewSource(seed))
	var tiles [stencilTiles][stencilTiles]float64
	for i := range tiles {
		for j := range tiles[i] {
			tiles[i][j] = 10 * rng.Float64()
		}
	}
	hot := 50 + 100*rng.Float64()
	tile := cfg.GridN / stencilTiles
	cfg.Source = func(x, y int) float64 { return tiles[x/tile][y/tile] }
	cfg.Boundary = func(side, k int) float64 {
		if side == 0 {
			return hot
		}
		return 0
	}
	a, err := stencil.New(rt, cfg)
	if err != nil {
		return nil, err
	}
	return stencilApp{a}, nil
}

func (s stencilApp) Run(rt *charm.Runtime) (string, error) {
	res, err := s.a.Run()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("events=%d elapsed=%v iters=%v residuals=%v",
		rt.Engine().Executed(), res.Elapsed, res.IterDone, res.Residuals), nil
}
