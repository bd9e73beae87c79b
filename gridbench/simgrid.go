package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/sim"
	"gridmdo/internal/stencil"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// simSize is the sim-grid input: the stencil with its cost model on a
// simulated multi-cluster machine whose cluster-pair latencies are drawn
// from the seed.
type simSize struct {
	width, v, steps, warmup int
	groups                  string // topology groups, e.g. "16x64"
	overlapPEs              int    // PEs the overlap analysis covers
}

var (
	simFull = simSize{width: 1024, v: 64, steps: 20, warmup: 4, groups: "16x64", overlapPEs: 64}
	simTiny = simSize{width: 64, v: 8, steps: 4, warmup: 1, groups: "2x8", overlapPEs: 8}
)

// simTraceCapacity is the per-PE ring of a traced sim-grid rep. At full
// size a PE records about 1,300 events, so the ring holds the whole run on
// every PE but PE 0, which also runs the reductions (about 11,000 events)
// and keeps only its latest 2,048.
const simTraceCapacity = 2048

func (sz simSize) spec(seed int64) string {
	return fmt.Sprintf("%s;wan=5ms;mesh=rand:%d:2ms:10ms", sz.groups, uint64(seed))
}

func (sz simSize) program() (*core.Program, error) {
	return stencil.BuildProgram(&stencil.Params{
		Width: sz.width, Height: sz.width, VX: sz.v, VY: sz.v,
		Steps: sz.steps, Warmup: sz.warmup,
		Model: stencil.DefaultModel(),
	})
}

// simRun is one engine run.
type simRun struct {
	checksum uint64
	virtual  time.Duration
	stats    sim.Stats
	buildTop time.Duration // topology.ParseSpec + Build
	newEng   time.Duration // program build + engine construction
	wall     time.Duration // Engine.Run
}

// runSimOnce builds the machine and the engine (sequential when workers
// is 0) and runs it, recording spans under parent on a traced pass.
func runSimOnce(sz simSize, seed int64, workers int, tr *trace.Tracer, rec *recorder, parent uint64, key int64) (*simRun, error) {
	r := &simRun{}
	t0 := time.Now()
	spec, err := topology.ParseSpec(sz.spec(seed))
	if err != nil {
		return nil, err
	}
	topo, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	prog, err := sz.program()
	if err != nil {
		return nil, err
	}
	opts := sim.Options{Trace: tr, MaxEvents: 500_000_000}
	var eng *sim.Engine
	if workers == 0 {
		eng, err = sim.New(topo, prog, opts)
	} else {
		eng, err = sim.NewParallel(topo, prog, opts, workers)
	}
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	v, vt, err := eng.Run()
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	res, ok := v.(*stencil.Result)
	if !ok {
		return nil, fmt.Errorf("exit value %T, want *stencil.Result", v)
	}
	r.checksum = math.Float64bits(res.Checksum)
	r.virtual = vt
	r.stats = eng.Stats()
	r.buildTop, r.newEng, r.wall = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	rec.add(span{Parent: parent, Name: "topology.Build", Key: key, Start: rec.at(t0), End: rec.at(t1)})
	rec.add(span{Parent: parent, Name: "sim.new", Key: key, Start: rec.at(t1), End: rec.at(t2)})
	rec.add(span{Parent: parent, Name: "sim.Engine.Run", Key: key, Start: rec.at(t2), End: rec.at(t3)})
	return r, nil
}

// runSimGrid is the sim-grid workload: the parallel engine with one
// worker per core. Every rep's checksum, final virtual time and event
// count must equal the sequential engine's bit for bit.
func runSimGrid(cfg passConfig) (*outcome, error) {
	sz := simFull
	if cfg.tiny {
		sz = simTiny
	}
	o := newOutcome()
	runID := cfg.rec.newID()
	runStart := cfg.rec.now()
	workers := runtime.NumCPU()

	seqID := cfg.rec.newID()
	seqStart := cfg.rec.now()
	ref, err := runSimOnce(sz, cfg.seed, 0, nil, cfg.rec, seqID, 0)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	cfg.rec.add(span{ID: seqID, Parent: runID, Name: "sim.sequential", Start: seqStart, End: cfg.rec.now()})
	seqRate := float64(ref.stats.Events) / ref.wall.Seconds()

	var setups, stepMS, rates, topoMS, newMS, heaps []float64
	var last *simRun
	var overlap map[string]float64
	// Only the first measured traced rep's events are analyzed, since the
	// analysis costs seconds; later reps reuse its tracer.
	var tr *trace.Tracer
	heap := startHeapSampler()
	defer heap.stopSampling()
	deadline := time.Now().Add(cfg.budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		if cfg.rec != nil && overlap == nil {
			tr = trace.NewWithCapacity(len(ref.stats.PEBusy), simTraceCapacity) // a fresh ring: one rep's events
		}
		repID := cfg.rec.newID()
		repStart := cfg.rec.now()
		runtime.GC()
		heap.lap()
		o.attempted++
		r, err := runSimOnce(sz, cfg.seed, workers, tr, cfg.rec, repID, int64(rep))
		peak := heap.lap()
		cfg.rec.add(span{ID: repID, Parent: runID, Name: "rep", Key: int64(rep), Start: repStart, End: cfg.rec.now()})
		if err != nil {
			o.fail("rep %d: %v", rep, err)
			continue
		}
		if r.checksum != ref.checksum || r.virtual != ref.virtual || r.stats.Events != ref.stats.Events {
			o.fail("rep %d: checksum %x virtual %v events %d; sequential %x %v %d",
				rep, r.checksum, r.virtual, r.stats.Events, ref.checksum, ref.virtual, ref.stats.Events)
			continue
		}
		if rep < warmupReps {
			continue
		}
		setups = append(setups, (r.buildTop + r.newEng).Seconds())
		stepMS = append(stepMS, ms(r.wall)/float64(sz.steps))
		rates = append(rates, float64(r.stats.Events)/r.wall.Seconds())
		topoMS = append(topoMS, ms(r.buildTop))
		newMS = append(newMS, ms(r.newEng))
		heaps = append(heaps, peak)
		last = r
		if tr != nil && overlap == nil {
			overlap = overlapMetrics(tr, sz.overlapPEs)
		}
	}
	if last == nil {
		cfg.rec.add(span{ID: runID, Name: "run", Start: runStart, End: cfg.rec.now()})
		return o, nil
	}
	o.note("rep sim_step_ms %s", fmtVals(stepMS))
	o.set("setup_s", median(setups))
	o.set("sim_step_ms", median(stepMS))
	o.set("events_per_s", median(rates))
	o.set("heap_peak_mb", median(heaps))
	o.opMS = median(stepMS)
	if cfg.rec != nil {
		st := last.stats
		o.set("sim.seq_events_per_s", seqRate)
		if base := cfg.base; base != nil && base.opMS > 0 {
			// Same events on both engines, so the rate ratio is the
			// ratio of wall times.
			o.set("sim.speedup", ms(ref.wall)/float64(sz.steps)/base.opMS)
		}
		o.set("sim.events", float64(st.Events))
		o.set("sim.messages", float64(st.Messages))
		o.set("sim.lookahead_us", us(st.Lookahead))
		o.set("sim.shards", float64(st.Shards))
		o.set("sim.busy_imbalance", busyImbalance(st.PEBusy))
		o.set("sim.new_ms", median(newMS))
		o.set("topology.build_ms", median(topoMS))
		for name, v := range overlap {
			o.set(name, v)
		}
	}
	cfg.rec.add(span{ID: runID, Name: "run", Start: runStart, End: cfg.rec.now()})
	return o, nil
}

// busyImbalance is max/mean of the per-PE charged busy time.
func busyImbalance(busy []time.Duration) float64 {
	var sum, top time.Duration
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(busy)) / float64(sum)
}
