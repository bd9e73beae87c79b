package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
	"gridmdo/internal/vmi"
)

// The two TCP workloads share one harness: a two-cluster machine hosted
// as two runtimes in this process, one per cluster, joined by the VMI TCP
// stack on loopback, with the delay device adding the paper's measured
// NCSA-ANL one-way latency on the WAN hop.

// wanLatency is the paper's TeraGrid one-way latency (Tables 1-2).
const wanLatency = 1725 * time.Microsecond

// tcpProcs is the paper's P=2 row: one PE per cluster.
const tcpProcs = 2

// tcpInstr instruments one traced rep. A nil *tcpInstr is an untraced rep.
type tcpInstr struct {
	rec     *recorder
	parent  uint64 // the rep's span
	key     int64  // rep number
	reg     *metrics.Registry
	tr      *trace.Tracer
	capture *bodyCapture
}

// tcpRun is the outcome of one rep on the two-node machine.
type tcpRun struct {
	setup time.Duration // construction, element creation, listen, until node 0 starts
	wall  time.Duration // node 0 start until its Run returns
	value any
}

// timedStack wraps the vmi.Stack handed to the runtime as its Transport:
// each Send is one span, and the frame bodies (the core wire encoding)
// are sampled for the codec replay. Embedding keeps the Stack's Bind
// method, so the runtime still completes the stack at construction.
type timedStack struct {
	*vmi.Stack
	in *tcpInstr
}

func (s *timedStack) Send(f *vmi.Frame) error {
	s.in.capture.add(f.Body)
	start := s.in.rec.now()
	err := s.Stack.Send(f)
	s.in.rec.add(span{Parent: s.in.parent, Name: "vmi.send", Key: s.in.key, Start: start, End: s.in.rec.now()})
	return err
}

// runTCPPair runs one program on the two-node machine. mkProg is called
// once per node. The run's result is produced on node 0.
func runTCPPair(mkProg func() (*core.Program, error), in *tcpInstr) (*tcpRun, error) {
	t0 := time.Now()
	topo, err := topology.TwoClusters(tcpProcs, wanLatency)
	if err != nil {
		return nil, err
	}
	half := tcpProcs / 2
	nodeOf := func(pe int) int {
		if pe < half {
			return 0
		}
		return 1
	}
	route := func(pe int32) int { return nodeOf(int(pe)) }
	var reg *metrics.Registry
	if in != nil {
		reg = in.reg
	}
	var stacks [2]*vmi.Stack
	defer func() {
		for _, s := range stacks {
			if s != nil {
				s.Close()
			}
		}
	}()
	var addrs [2]string
	for node := range stacks {
		s, err := vmi.NewChainBuilder(node, map[int]string{node: "127.0.0.1:0"}, route).Metrics(reg).Build()
		if err != nil {
			return nil, err
		}
		stacks[node] = s
		if addrs[node], err = s.Listen(); err != nil {
			return nil, err
		}
	}
	stacks[0].SetAddr(1, addrs[1])
	stacks[1].SetAddr(0, addrs[0])

	started := make(chan time.Time, 1)
	var rts [2]*core.Runtime
	for node := range rts {
		prog, err := mkProg()
		if err != nil {
			return nil, err
		}
		var transport core.Transport = stacks[node]
		opts := []core.Option{}
		if in != nil {
			transport = &timedStack{Stack: stacks[node], in: in}
			opts = append(opts, core.WithMetrics(in.reg), core.WithTrace(in.tr))
		}
		opts = append(opts, core.WithCluster(core.ClusterConfig{
			Transport: transport, NodeOf: nodeOf, Node: node,
			PELo: node * half, PEHi: (node + 1) * half,
		}))
		if node == 0 {
			opts = append(opts, core.WithLifecycle(core.Lifecycle{OnStart: func() { started <- time.Now() }}))
		}
		if rts[node], err = core.NewRuntime(topo, prog, opts...); err != nil {
			return nil, err
		}
	}
	// One epoch for both nodes, so merged trace times line up.
	epoch := time.Now()
	rts[0].SetEpoch(epoch)
	rts[1].SetEpoch(epoch)

	workerDone := make(chan error, 1)
	go func() {
		_, err := rts[1].Run()
		workerDone <- err
	}()
	v, err := rts[0].Run()
	end := time.Now()
	rts[1].Stop()
	werr := <-workerDone
	if err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, fmt.Errorf("worker node: %w", werr)
	}
	t1 := <-started
	return &tcpRun{setup: t1.Sub(t0), wall: end.Sub(t1), value: v}, nil
}

// tcpApp is one rep's program and its checks.
type tcpApp struct {
	steps  int
	mkProg func() (*core.Program, error)
	// check validates the run's exit value against the reference and
	// returns the steady-state time per step.
	check func(v any) (time.Duration, error)
}

// tcpLayers accumulates the per-rep layer readings of a traced pass.
type tcpLayers struct {
	perRep  map[string][]float64
	capture *bodyCapture
}

// runTCPReps repeats the app until the budget is spent (at least minReps
// times) and records the medians, over the measured reps, of setup_s,
// step_ms and heap_peak_mb; on a traced pass also the core, codec, vmi
// and trace layer metrics. Traced reps record into a tracer of traceCap
// events per PE. Only the first measured rep's events are analyzed (the
// analysis costs seconds); later reps record into its tracer.
func runTCPReps(cfg passConfig, o *outcome, runID uint64, traceCap int, newRep func(rep int) tcpApp) {
	layers := tcpLayers{perRep: map[string][]float64{}}
	if cfg.rec != nil {
		layers.capture = newBodyCapture(cfg.seed, codecSample)
	}
	var tr *trace.Tracer
	var setups, steps, heaps []float64
	heap := startHeapSampler()
	defer heap.stopSampling()
	deadline := time.Now().Add(cfg.budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		app := newRep(rep)
		var in *tcpInstr
		repStart := cfg.rec.now()
		if cfg.rec != nil {
			if _, analyzed := layers.perRep["trace.masked_frac"]; !analyzed {
				tr = trace.NewWithCapacity(tcpProcs, traceCap) // a fresh ring: one rep's events
			}
			in = &tcpInstr{
				rec: cfg.rec, parent: cfg.rec.newID(), key: int64(rep),
				reg: metrics.NewRegistry(), tr: tr,
				capture: layers.capture,
			}
		}
		// Each rep starts from a collected heap, so one rep's garbage
		// does not tax the next one's steps.
		runtime.GC()
		heap.lap()
		o.attempted++
		r, err := runTCPPair(app.mkProg, in)
		peak := heap.lap()
		var perStep time.Duration
		if err == nil {
			perStep, err = app.check(r.value)
		}
		if in != nil {
			cfg.rec.add(span{ID: in.parent, Parent: runID, Name: "rep", Key: int64(rep), Start: repStart, End: cfg.rec.now()})
		}
		if err != nil {
			o.fail("rep %d: %v", rep, err)
			continue
		}
		if rep < warmupReps {
			continue
		}
		setups = append(setups, r.setup.Seconds())
		steps = append(steps, ms(perStep))
		heaps = append(heaps, peak)
		if in != nil {
			layers.record(in, r, app.steps)
			if _, analyzed := layers.perRep["trace.masked_frac"]; !analyzed {
				for name, v := range overlapMetrics(tr, tcpProcs) {
					layers.perRep[name] = append(layers.perRep[name], v)
				}
			}
		}
	}
	if len(steps) == 0 {
		return
	}
	o.note("rep step_ms %s", fmtVals(steps))
	o.set("setup_s", median(setups))
	o.set("step_ms", median(steps))
	o.set("heap_peak_mb", median(heaps))
	o.opMS = median(steps)
	if cfg.rec == nil {
		return
	}
	for name, vals := range layers.perRep {
		o.set(name, median(vals))
	}
	sends := durations(cfg.rec.snapshot(), "vmi.send")
	o.set("vmi.send_us_p50", durQuantileMS(sends, 0.50)*1e3)
	o.set("vmi.send_us_p99", durQuantileMS(sends, 0.99)*1e3)
	o.attempted++
	st, err := replayCodec(layers.capture.bodies, cfg.rec, runID)
	if err != nil {
		o.fail("codec replay: %v", err)
		return
	}
	o.set("core.codec_encode_us", st.encodeUS)
	o.set("core.codec_decode_us", st.decodeUS)
	o.set("core.codec_allocs_per_msg", st.allocsPerMsg)
	o.set("core.codec_bytes_per_msg", st.bytesPerMsg)
	o.set("core.codec_gob_frac", st.gobFrac)
}

// record reads one traced rep's registry.
func (l *tcpLayers) record(in *tcpInstr, r *tcpRun, steps int) {
	snap := in.reg.Snapshot()
	add := func(name string, v float64) { l.perRep[name] = append(l.perRep[name], v) }
	add("core.handler_us_p50", histQuantile(snap, "core_handler_nanos", 0.50)/1e3)
	add("core.handler_us_p99", histQuantile(snap, "core_handler_nanos", 0.99)/1e3)
	add("core.idle_frac", float64(snap.Value("core_idle_nanos_total"))/(float64(r.wall)*tcpProcs))
	add("core.msgs_per_step", float64(snap.Value("core_msgs_processed_total"))/float64(steps))
	add("core.queue_depth_hw", float64(seriesMax(snap, "core_queue_depth_high_water")))
	add("vmi.frames_per_step", float64(snap.Value("vmi_tcp_frames_out_total"))/float64(steps))
	add("vmi.bytes_per_step", float64(snap.Value("vmi_tcp_bytes_out_total"))/float64(steps))
	add("vmi.write_batch_bytes_p50", histQuantile(snap, "vmi_tcp_write_batch_bytes", 0.50))
	add("vmi.backpressure_stalls", float64(snap.Value("vmi_tcp_backpressure_stalls_total")))
	add("vmi.delay_occupancy_hw", float64(seriesMax(snap, "vmi_delay_occupancy_high_water")))
}

// overlapMetrics reads a finished run's tracer (after Run has returned,
// never through a live Cursor) into the trace.* layer metrics.
func overlapMetrics(tr *trace.Tracer, numPE int) map[string]float64 {
	evs := tr.Events()
	var horizon time.Duration
	for _, ev := range evs {
		end := ev.At
		if ev.Kind == trace.EvIdle {
			end += time.Duration(ev.Arg1)
		}
		horizon = max(horizon, end)
	}
	out := map[string]float64{}
	if horizon <= 0 {
		return out
	}
	tot := trace.ComputeOverlap(evs, numPE, horizon).Totals()
	window := float64(horizon) * float64(numPE)
	out["trace.masked_frac"] = tot.MaskedFraction()
	out["trace.commwait_frac"] = float64(tot.CommWait) / window
	out["trace.compute_frac"] = float64(tot.Busy) / window
	out["trace.critpath_exposed_frac"] = trace.CriticalPath(evs).ExposedFraction()
	return out
}

// bodyCapture keeps a uniform sample (reservoir) of the wire bodies the
// workload sent, copied, since the runtime recycles the buffers.
type bodyCapture struct {
	mu     sync.Mutex
	rng    *rand.Rand
	limit  int
	seen   int
	bodies [][]byte
}

func newBodyCapture(seed int64, limit int) *bodyCapture {
	return &bodyCapture{rng: rand.New(rand.NewSource(seed)), limit: limit}
}

func (c *bodyCapture) add(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if len(c.bodies) < c.limit {
		c.bodies = append(c.bodies, bytes.Clone(b))
	} else if j := c.rng.Intn(c.seen); j < c.limit {
		c.bodies[j] = bytes.Clone(b)
	}
}

// codecStats summarizes a replay of captured bodies through the codec.
type codecStats struct {
	encodeUS, decodeUS, allocsPerMsg, bytesPerMsg, gobFrac float64
}

// payloadTagOffset is the payload tag's offset in the core wire header;
// tag 255 is the per-message gob fallback.
const (
	payloadTagOffset = 56
	gobTag           = 255
)

// replayCodec decodes and re-encodes every captured body with
// core.DecodeMessage and core.AppendMessage: once untimed (gob pays
// one-time type setup on first use), once timed with one span per call,
// and once counting heap allocations.
func replayCodec(bodies [][]byte, rec *recorder, parent uint64) (codecStats, error) {
	var st codecStats
	if len(bodies) == 0 {
		return st, nil
	}
	buf := make([]byte, 0, 64<<10)
	roundTrip := func(b []byte) error {
		m, err := core.DecodeMessage(b)
		if err != nil {
			return err
		}
		buf, err = core.AppendMessage(buf[:0], m)
		return err
	}
	for _, b := range bodies {
		if err := roundTrip(b); err != nil {
			return st, err
		}
	}

	id := rec.newID()
	start := rec.now()
	var enc, dec time.Duration
	var size, gob int
	for i, b := range bodies {
		size += len(b)
		if b[payloadTagOffset] == gobTag {
			gob++
		}
		t0 := time.Now()
		m, err := core.DecodeMessage(b)
		t1 := time.Now()
		if err != nil {
			return st, err
		}
		buf, err = core.AppendMessage(buf[:0], m)
		t2 := time.Now()
		if err != nil {
			return st, err
		}
		dec += t1.Sub(t0)
		enc += t2.Sub(t1)
		rec.add(span{Parent: id, Name: "core.DecodeMessage", Key: int64(i), Start: rec.at(t0), End: rec.at(t1)})
		rec.add(span{Parent: id, Name: "core.AppendMessage", Key: int64(i), Start: rec.at(t1), End: rec.at(t2)})
	}
	rec.add(span{ID: id, Parent: parent, Name: "core.codec_replay", Start: start, End: rec.now()})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bodies {
		if err := roundTrip(b); err != nil {
			return st, err
		}
	}
	runtime.ReadMemStats(&m1)

	n := float64(len(bodies))
	st.decodeUS = us(dec) / n
	st.encodeUS = us(enc) / n
	st.allocsPerMsg = float64(m1.Mallocs-m0.Mallocs) / n
	st.bytesPerMsg = float64(size) / n
	st.gobFrac = float64(gob) / n
	return st, nil
}
