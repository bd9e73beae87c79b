package main

import (
	"fmt"
	"math"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/leanmd"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
)

// stencilSize is the stencil-tcp input.
type stencilSize struct{ width, v, warmup, steady int }

// Table 1, row P=2, V=64: a 2048x2048 mesh as 8x8 objects.
var (
	stencilFull = stencilSize{width: 2048, v: 8, warmup: 5, steady: 40}
	stencilTiny = stencilSize{width: 64, v: 2, warmup: 1, steady: 3}
)

// stencilTraceCap holds a whole stencil-tcp rep per PE (about 10k events).
const stencilTraceCap = 1 << 15

// runStencilTCP is the stencil-tcp workload. Every rep's final mesh,
// gathered through Params.Collect, must equal the sequential Jacobi bit
// for bit.
func runStencilTCP(cfg passConfig) (*outcome, error) {
	sz := stencilFull
	if cfg.tiny {
		sz = stencilTiny
	}
	o := newOutcome()
	runID := cfg.rec.newID()
	runStart := cfg.rec.now()
	w, steps := sz.width, sz.warmup+sz.steady

	seqStart := cfg.rec.now()
	t0 := time.Now()
	ref := stencil.RunSequential(w, w, steps)
	seqStep := time.Since(t0) / time.Duration(steps)
	cfg.rec.add(span{Parent: runID, Name: "stencil.RunSequential", Start: seqStart, End: cfg.rec.now()})

	// One gather buffer, poisoned with NaN before each rep so a block
	// that never reports cannot pass on a previous rep's values.
	grid := make([]float64, w*w)
	runTCPReps(cfg, o, runID, stencilTraceCap, func(rep int) tcpApp {
		for i := range grid {
			grid[i] = math.NaN()
		}
		p := &stencil.Params{
			Width: w, Height: w, VX: sz.v, VY: sz.v,
			Steps: steps, Warmup: sz.warmup,
			Collect: func(_, _, x0, y0, bw, bh int, vals []float64) {
				for y := 0; y < bh; y++ {
					copy(grid[(y0+y)*w+x0:(y0+y)*w+x0+bw], vals[y*bw:(y+1)*bw])
				}
			},
		}
		return tcpApp{
			steps:  steps,
			mkProg: func() (*core.Program, error) { return stencil.BuildProgram(p) },
			check: func(v any) (time.Duration, error) {
				res, ok := v.(*stencil.Result)
				if !ok {
					return 0, fmt.Errorf("exit value %T, want *stencil.Result", v)
				}
				for i := range ref {
					if math.Float64bits(grid[i]) != math.Float64bits(ref[i]) {
						return 0, fmt.Errorf("cell (%d,%d) = %v, sequential %v", i%w, i/w, grid[i], ref[i])
					}
				}
				return res.PerStep, nil
			},
		}
	})
	cfg.rec.add(span{ID: runID, Name: "run", Start: runStart, End: cfg.rec.now()})
	if cfg.rec != nil {
		o.set("stencil.seq_step_ms", ms(seqStep))
		o.set("stencil.bytes_per_step", float64(stencilGhostBytes(sz)))
		if base := cfg.base; base != nil && base.opMS > 0 {
			o.set("stencil.speedup", ms(seqStep)/base.opMS)
		}
	}
	return o, nil
}

// stencilGhostBytes computes (does not measure) the ghost payload bytes
// one step moves: every block sends one border vector to each existing
// neighbor, 16 bytes of header plus 8 per cell (ghostMsg.PayloadBytes).
func stencilGhostBytes(sz stencilSize) int {
	side := func(i int) int { // cells in block row/column i
		base, rem := sz.width/sz.v, sz.width%sz.v
		if i < rem {
			return base + 1
		}
		return base
	}
	total := 0
	for bx := 0; bx < sz.v; bx++ {
		for by := 0; by < sz.v; by++ {
			bw, bh := side(bx), side(by)
			if bx > 0 {
				total += 16 + 8*bh
			}
			if bx < sz.v-1 {
				total += 16 + 8*bh
			}
			if by > 0 {
				total += 16 + 8*bw
			}
			if by < sz.v-1 {
				total += 16 + 8*bw
			}
		}
	}
	return total
}

// mdSize is the leanmd-tcp input.
type mdSize struct{ n, atoms, warmup, steady int }

// Table 2, row P=2: 6x6x6 = 216 cells and 3,024 cell-pair objects.
var (
	mdFull = mdSize{n: 6, atoms: 12, warmup: 3, steady: 12}
	mdTiny = mdSize{n: 3, atoms: 4, warmup: 1, steady: 2}
)

// Correctness bounds of leanmd-tcp. The real-time run sums force
// contributions and energies in arrival order, so its final energy matches
// the virtual-time engine's to rounding, not bit for bit.
const (
	mdEnergyRelTol = 1e-9
	mdDriftBound   = 0.05
)

func (sz mdSize) params(seed int64) *leanmd.Params {
	p := leanmd.DefaultParams()
	p.NX, p.NY, p.NZ = sz.n, sz.n, sz.n
	p.AtomsPerCell = sz.atoms
	p.Warmup, p.Steps = sz.warmup, sz.warmup+sz.steady
	p.Seed = seed
	return p
}

// mdTraceCap holds a whole leanmd-tcp rep per PE (about 350k events).
const mdTraceCap = 1 << 19

// runLeanMDTCP is the leanmd-tcp workload. Every rep's final energy must
// match the virtual-time engine's run of the same Params within
// mdEnergyRelTol, and its energy drift must stay within mdDriftBound.
func runLeanMDTCP(cfg passConfig) (*outcome, error) {
	sz := mdFull
	if cfg.tiny {
		sz = mdTiny
	}
	o := newOutcome()
	runID := cfg.rec.newID()
	runStart := cfg.rec.now()

	refProg, _, err := leanmd.BuildProgram(sz.params(cfg.seed))
	if err != nil {
		return nil, err
	}
	topo, err := topology.TwoClusters(tcpProcs, wanLatency)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(topo, refProg, sim.Options{})
	if err != nil {
		return nil, err
	}
	v, _, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("virtual-time reference: %w", err)
	}
	ref, ok := v.(*leanmd.Result)
	if !ok {
		return nil, fmt.Errorf("virtual-time reference exited with %T", v)
	}

	// The sequential force evaluation on the same system: the kernel's
	// single-threaded baseline.
	p := sz.params(cfg.seed)
	g, err := leanmd.NewGeometry(p.NX, p.NY, p.NZ)
	if err != nil {
		return nil, err
	}
	ff, sys := p.Field(), leanmd.BuildSystem(p, g)
	seqStart := cfg.rec.now()
	t0 := time.Now()
	leanmd.DecomposedForces(p, g, ff, sys)
	seqForce := time.Since(t0)
	cfg.rec.add(span{Parent: runID, Name: "leanmd.DecomposedForces", Start: seqStart, End: cfg.rec.now()})

	var drifts []float64
	runTCPReps(cfg, o, runID, mdTraceCap, func(rep int) tcpApp {
		return tcpApp{
			steps: p.Steps,
			mkProg: func() (*core.Program, error) {
				prog, _, err := leanmd.BuildProgram(sz.params(cfg.seed))
				return prog, err
			},
			check: func(v any) (time.Duration, error) {
				res, ok := v.(*leanmd.Result)
				if !ok {
					return 0, fmt.Errorf("exit value %T, want *leanmd.Result", v)
				}
				if rel := math.Abs(res.EFinal-ref.EFinal) / math.Abs(ref.EFinal); !(rel <= mdEnergyRelTol) {
					return 0, fmt.Errorf("final energy %v, virtual-time engine %v (relative error %.3g > %g)",
						res.EFinal, ref.EFinal, rel, mdEnergyRelTol)
				}
				if d := res.Drift(); !(d <= mdDriftBound) {
					return 0, fmt.Errorf("energy drift %.4g > %g", d, mdDriftBound)
				}
				drifts = append(drifts, res.Drift())
				return res.PerStep, nil
			},
		}
	})
	cfg.rec.add(span{ID: runID, Name: "run", Start: runStart, End: cfg.rec.now()})
	if cfg.rec != nil {
		o.set("leanmd.seq_force_ms", ms(seqForce))
		o.set("leanmd.energy_drift", median(drifts))
		if base := cfg.base; base != nil && base.opMS > 0 {
			o.set("leanmd.speedup", ms(seqForce)/base.opMS)
		}
	}
	return o, nil
}
