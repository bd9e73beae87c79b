package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/gate"
	"gridmdo/internal/metrics"
	"gridmdo/internal/taskfarm"
	"gridmdo/internal/topology"
	"gridmdo/internal/trace"
)

// gate-open drives the job path (HTTP gateway, admission queue, serve-mode
// task farm) with open-loop traffic: independent tenants whose jobs arrive
// on a Poisson schedule drawn from the seed, POSTed without wait. A job's
// latency runs from its scheduled send time to the gateway's JobDone
// hook, so a stalled generator counts against the system.

// gateSize is the gate-open load shape. Rates are fixed constants sized
// from the stack's closed-loop capacity on a 2-core host (about 4.4k
// jobs/s at 16 waiting clients, p99 7-8 ms).
type gateSize struct {
	procs        int
	light, heavy float64       // jobs/s
	ladder       []float64     // jobs/s, ascending
	limit        time.Duration // p99 limit of the ladder
}

var (
	gateFull = gateSize{
		procs: 4, light: 500, heavy: 2000,
		ladder: []float64{1000, 2000, 3000, 4000, 5000, 6000},
		limit:  20 * time.Millisecond,
	}
	gateTiny = gateSize{
		procs: 4, light: 100, heavy: 200,
		ladder: []float64{200, 400},
		limit:  50 * time.Millisecond,
	}
)

const (
	gateTenant    = "open"
	gateDrainWait = 10 * time.Second
	gateTraceCap  = 1 << 18
)

// jobTimes is one job's lifecycle as the gateway's Observer saw it.
type jobTimes struct {
	admitted, injected, done time.Time
	msgID                    uint64
	dones                    int
	failed                   bool
}

// jobObserver is the benchmark's gate.Observer. The gateway calls it under
// its own mutex, so each hook only stamps the time and updates maps.
type jobObserver struct {
	mu      sync.Mutex
	next    uint64
	byID    map[string]*jobTimes
	byRoot  map[uint64]*jobTimes
	pending int // admitted, not yet done
}

func newJobObserver() *jobObserver {
	return &jobObserver{byID: map[string]*jobTimes{}, byRoot: map[uint64]*jobTimes{}}
}

func (o *jobObserver) JobAdmitted(jobID, _ string) uint64 {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.next++
	jt := &jobTimes{admitted: now}
	o.byID[jobID] = jt
	o.byRoot[o.next] = jt
	o.pending++
	return o.next
}

func (o *jobObserver) JobInjected(root, msgID uint64) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if jt := o.byRoot[root]; jt != nil {
		jt.injected, jt.msgID = now, msgID
	}
}

func (o *jobObserver) JobDone(_ string, root uint64, _ string, _ time.Duration, failed bool) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	jt := o.byRoot[root]
	if jt == nil {
		return
	}
	jt.dones++
	jt.failed = jt.failed || failed
	if jt.dones == 1 {
		jt.done = now
		o.pending--
	}
}

func (o *jobObserver) backlog() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pending
}

// lookup copies a job's lifecycle.
func (o *jobObserver) lookup(id string) (jobTimes, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	jt, ok := o.byID[id]
	if !ok {
		return jobTimes{}, false
	}
	return *jt, true
}

// gateStack is the assembled job path: serve farm on one runtime (two
// clusters behind a 1 ms delay device), gateway, and HTTP listener.
type gateStack struct {
	reg  *metrics.Registry // nil on an untraced pass
	tr   *trace.Tracer     // nil on an untraced pass
	svc  *taskfarm.Service
	gw   *gate.Gateway
	rt   *core.Runtime
	srv  *http.Server
	url  string
	obs  *jobObserver
	done chan error
}

func buildGateStack(sz gateSize, traced bool) (*gateStack, error) {
	st := &gateStack{obs: newJobObserver(), done: make(chan error, 1)}
	if traced {
		st.reg = metrics.NewRegistry()
		st.tr = trace.NewWithCapacity(sz.procs, gateTraceCap)
	}
	fp := &taskfarm.Params{
		Serve: true, Workers: sz.procs,
		Shards: 2, Batch: 4, Steal: true, Prefetch: 2, Spin: 20_000,
		CostSkew: 1, Seed: 1, Metrics: st.reg,
	}
	svc, err := taskfarm.NewService(fp)
	if err != nil {
		return nil, err
	}
	prog, err := taskfarm.BuildProgram(fp)
	if err != nil {
		return nil, err
	}
	topo, err := topology.New([]int{sz.procs / 2, sz.procs - sz.procs/2}, topology.WithInterLatency(time.Millisecond))
	if err != nil {
		return nil, err
	}
	gw, err := gate.New(gate.Config{
		Tenants:     []gate.TenantConfig{{Name: gateTenant, Weight: 1, MaxQueue: 1 << 20}},
		MaxInflight: 4, SubmitBatch: 4,
		Metrics:  st.reg,
		Observer: st.obs,
	}, svc)
	if err != nil {
		return nil, err
	}
	svc.OnResult(gw.OnResult)
	ready := make(chan struct{})
	opts := []core.Option{core.WithLifecycle(core.Lifecycle{OnStart: func() { close(ready) }})}
	if traced {
		opts = append(opts, core.WithMetrics(st.reg), core.WithTrace(st.tr))
	}
	rt, err := core.NewRuntime(topo, prog, opts...)
	if err != nil {
		gw.Close(nil)
		return nil, err
	}
	svc.Bind(rt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close(nil)
		return nil, err
	}
	st.svc, st.gw, st.rt = svc, gw, rt
	st.srv = &http.Server{Handler: gw.Handler()}
	st.url = "http://" + ln.Addr().String() + "/v1/jobs"
	go func() {
		_, err := rt.Run()
		st.done <- err
	}()
	<-ready
	go func() { _ = st.srv.Serve(ln) }()
	return st, nil
}

// shutdown stops the runtime, fails any job still open, and closes the
// listener. It returns the runtime's error.
func (st *gateStack) shutdown() error {
	st.rt.Stop()
	err := <-st.done
	st.gw.Close(nil)
	if cerr := st.srv.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// sentJob is one generated job as the load generator saw it.
type sentJob struct {
	due, start, end time.Time
	id              string
	err             error
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	jobs       []sentJob
	latencies  []time.Duration // due -> JobDone, completed jobs only
	backlogEnd int             // admitted but not done when sending ended
	failed     int             // jobs that failed a check
	pre, post  metrics.Snapshot
	wall       time.Duration
}

// newGateClient returns a client holding exactly one keep-alive connection.
func newGateClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}
}

// post submits one job without wait and returns its ID.
func post(cl *http.Client, url string) (string, error) {
	resp, err := cl.Post(url, "application/json", strings.NewReader(`{"tenant":"`+gateTenant+`"}`))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
		return "", fmt.Errorf("bad submit response %q", body)
	}
	return r.ID, nil
}

// runPhase offers Poisson arrivals at rate for dur from up to two
// goroutines (never more than the host has cores), each with its own
// keep-alive connection, then waits for every accepted job to finish. Every
// job counts as attempted in o, and every failed check as failed.
func (st *gateStack) runPhase(rate float64, dur time.Duration, rng *rand.Rand, o *outcome) *phaseResult {
	var offsets []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	p := &phaseResult{jobs: make([]sentJob, len(offsets))}
	p.pre = st.reg.Snapshot()
	t0 := time.Now().Add(2 * time.Millisecond)
	for i := range p.jobs {
		p.jobs[i].due = t0.Add(offsets[i])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(2, runtime.NumCPU()); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newGateClient()
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.jobs) {
					return
				}
				j := &p.jobs[i]
				time.Sleep(time.Until(j.due))
				j.start = time.Now()
				j.id, j.err = post(cl, st.url)
				j.end = time.Now()
			}
		}()
	}
	wg.Wait()
	p.backlogEnd = st.obs.backlog()
	deadline := time.Now().Add(gateDrainWait)
	for st.obs.backlog() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.wall = time.Since(t0)
	p.post = st.reg.Snapshot()
	o.attempted += len(p.jobs)
	before := o.failed
	for i := range p.jobs {
		j := &p.jobs[i]
		if j.err != nil {
			o.fail("job %d: %v", i, j.err)
			continue
		}
		jt, ok := st.obs.lookup(j.id)
		switch {
		case !ok:
			o.fail("job %s: accepted but never admitted", j.id)
		case jt.dones == 0:
			o.fail("job %s: not done %v after sending ended", j.id, gateDrainWait)
		case jt.dones > 1:
			o.fail("job %s: completed %d times", j.id, jt.dones)
		case jt.failed:
			o.fail("job %s: failed", j.id)
		default:
			p.latencies = append(p.latencies, jt.done.Sub(j.due))
		}
	}
	p.failed = o.failed - before
	return p
}

// checkValues verifies every accepted job's value against the farm's
// deterministic task value, that no two jobs share a farm task, and the
// farm's own exactly-once counters, counting each violation as failed.
func (st *gateStack) checkValues(p *phaseResult, o *outcome) {
	seqs := map[int64]string{}
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		job, ok := st.gw.Lookup(j.id)
		if !ok {
			o.fail("job %s: unknown to the gateway", j.id)
			continue
		}
		state, value, _ := st.gw.Status(job)
		if state != gate.StateDone {
			continue // already counted by its phase
		}
		if other, dup := seqs[job.Seq]; dup {
			o.fail("jobs %s and %s share farm task %d", other, j.id, job.Seq)
			continue
		}
		seqs[job.Seq] = j.id
		if want := taskfarm.TaskValue(int(job.Seq)); math.Float64bits(value) != math.Float64bits(want) {
			o.fail("job %s: value %v, task %d computes %v", j.id, value, job.Seq, want)
		}
	}
	if d := st.svc.DoubleExecs(); d > 0 {
		o.fail("farm executed %d tasks twice", d)
	}
	if c, s := st.svc.Completed(), st.svc.Submitted(); c != s {
		o.fail("farm completed %d of %d submitted tasks", c, s)
	}
}

// measureGateSetup builds a stack, POSTs one job with wait=true and
// returns the time from construction until that job's reply.
func measureGateSetup(sz gateSize, traced bool) (*gateStack, time.Duration, error) {
	t0 := time.Now()
	st, err := buildGateStack(sz, traced)
	if err != nil {
		return nil, 0, err
	}
	cl := newGateClient()
	defer cl.CloseIdleConnections()
	resp, err := cl.Post(st.url, "application/json", strings.NewReader(`{"tenant":"`+gateTenant+`","wait":true}`))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first job: status %d", resp.StatusCode)
		}
	}
	setup := time.Since(t0)
	if err != nil {
		_ = st.shutdown()
		return nil, 0, err
	}
	return st, setup, nil
}

// gateRep is one phase on its own stack.
type gateRep struct {
	st    *gateStack
	p     *phaseResult
	setup time.Duration
	heap  float64 // peak MiB during the phase
}

// runGateRep builds a fresh stack (timing its set-up), offers one phase
// at rate for dur, checks every job's value and tears the stack down.
// Each phase gets its own stack, so a phase starts from the same state
// whatever ran before it. It returns nil if the stack could not start.
func runGateRep(sz gateSize, traced bool, rate float64, dur time.Duration, rng *rand.Rand, heap *heapSampler, o *outcome) *gateRep {
	runtime.GC()
	st, setup, err := measureGateSetup(sz, traced)
	o.attempted++
	if err != nil {
		o.fail("set-up: %v", err)
		return nil
	}
	heap.lap()
	p := st.runPhase(rate, dur, rng, o)
	r := &gateRep{st: st, p: p, setup: setup, heap: heap.lap()}
	var late []time.Duration
	for _, j := range p.jobs {
		late = append(late, j.start.Sub(j.due))
	}
	o.note("phase rate=%g/s jobs=%d p50_ms=%.3f p99_ms=%.3f backlog_end=%d gen_late_p99_ms=%.3f failed=%d",
		rate, len(p.jobs), durQuantileMS(p.latencies, 0.5), durQuantileMS(p.latencies, 0.99),
		p.backlogEnd, durQuantileMS(late, 0.99), p.failed)
	st.checkValues(p, o)
	if err := st.shutdown(); err != nil {
		o.fail("runtime: %v", err)
	}
	return r
}

// gateHeavyRep is the length of one heavy-rate phase; the heavy share of
// the budget is split into phases of this length.
const gateHeavyRep = 2500 * time.Millisecond

// runGateOpen is the gate-open workload. The untraced run offers the
// light rate, the heavy rate, then the ladder; a --trace 1 run offers the
// heavy rate only. op_ms is the median over the heavy phases of each
// phase's median latency.
func runGateOpen(cfg passConfig) (*outcome, error) {
	sz := gateFull
	if cfg.tiny {
		sz = gateTiny
	}
	o := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	traced := cfg.rec != nil
	runID := cfg.rec.newID()
	runStart := cfg.rec.now()
	heap := startHeapSampler()
	defer heap.stopSampling()

	var setups []float64
	rep := func(rate float64, dur time.Duration) *gateRep {
		r := runGateRep(sz, traced, rate, dur, rng, heap, o)
		if r != nil {
			setups = append(setups, r.setup.Seconds())
		}
		return r
	}

	heavyBudget := cfg.budget
	if !cfg.short {
		if light := rep(sz.light, cfg.budget*10/100); light != nil {
			o.set("job_p99_ms.light", durQuantileMS(light.p.latencies, 0.99))
		}
		heavyBudget = cfg.budget * 50 / 100
	}
	n := max(1, int(heavyBudget/gateHeavyRep))
	var p50s, heaps []float64
	var pooled []time.Duration
	layers := map[string][]float64{}
	for i := 0; i < n; i++ {
		r := rep(sz.heavy, heavyBudget/time.Duration(n))
		if r == nil || len(r.p.latencies) == 0 {
			continue
		}
		p50s = append(p50s, durQuantileMS(r.p.latencies, 0.50))
		heaps = append(heaps, r.heap)
		pooled = append(pooled, r.p.latencies...)
		if traced {
			for name, v := range r.st.recordLayers(r.p, cfg.rec, runID, int64(i)) {
				layers[name] = append(layers[name], v)
			}
		}
	}
	if !cfg.short {
		rung := cfg.budget * 40 / 100 / time.Duration(len(sz.ladder))
		maxRate := 0.0
		for _, rate := range sz.ladder {
			r := rep(rate, rung)
			if r == nil || r.p.failed > 0 || durQuantileMS(r.p.latencies, 0.99) > ms(sz.limit) ||
				float64(r.p.backlogEnd) > rate*sz.limit.Seconds() {
				break
			}
			maxRate = rate
		}
		o.set("max_rate_jobs_s", maxRate)
	}
	if len(setups) > 0 {
		o.set("setup_s", median(setups))
	}
	if len(p50s) > 0 {
		o.note("heavy phase p50_ms %s", fmtVals(p50s))
		o.opMS = median(p50s)
		o.set("job_p50_ms", o.opMS)
		o.set("job_p99_ms", durQuantileMS(pooled, 0.99))
		o.set("heap_peak_mb", median(heaps))
	}
	for name, vals := range layers {
		o.set(name, median(vals))
	}
	cfg.rec.add(span{ID: runID, Name: "run", Start: runStart, End: cfg.rec.now()})
	return o, nil
}

// recordLayers turns one traced heavy phase into spans (one tree per
// job: the HTTP POST, the admission queue, the farm) and returns its
// gate, taskfarm, core and trace layer readings. Call it after shutdown,
// so the tracer's ring is quiescent.
func (st *gateStack) recordLayers(p *phaseResult, rec *recorder, runID uint64, key int64) map[string]float64 {
	phaseID := rec.newID()
	var phaseStart, phaseEnd time.Time
	var posts, queue, farm, late []time.Duration
	msgs := map[uint64]bool{}
	for i, j := range p.jobs {
		if i == 0 || j.due.Before(phaseStart) {
			phaseStart = j.due
		}
		end := j.end
		late = append(late, j.start.Sub(j.due))
		posts = append(posts, j.end.Sub(j.start))
		jobID := rec.newID()
		rec.add(span{Parent: jobID, Name: "http.POST", Key: int64(i), Start: rec.at(j.start), End: rec.at(j.end)})
		if jt, ok := st.obs.lookup(j.id); ok && j.err == nil && jt.dones > 0 && !jt.failed {
			queue = append(queue, jt.injected.Sub(jt.admitted))
			farm = append(farm, jt.done.Sub(jt.injected))
			msgs[jt.msgID] = true
			rec.add(span{Parent: jobID, Name: "gate.queue", Key: int64(i), Start: rec.at(jt.admitted), End: rec.at(jt.injected)})
			rec.add(span{Parent: jobID, Name: "taskfarm.exec", Key: int64(i), Start: rec.at(jt.injected), End: rec.at(jt.done)})
			if jt.done.After(end) {
				end = jt.done
			}
		}
		rec.add(span{ID: jobID, Parent: phaseID, Name: "job", Key: int64(i), Start: rec.at(j.due), End: rec.at(end)})
		if end.After(phaseEnd) {
			phaseEnd = end
		}
	}
	rec.add(span{ID: phaseID, Parent: runID, Name: "phase.heavy", Key: key, Start: rec.at(phaseStart), End: rec.at(phaseEnd)})

	out := map[string]float64{
		"gate.post_ms_p50":               durQuantileMS(posts, 0.50),
		"gate.post_ms_p99":               durQuantileMS(posts, 0.99),
		"gate.queue_wait_ms_p99":         durQuantileMS(queue, 0.99),
		"gate.gen_late_ms_p99":           durQuantileMS(late, 0.99),
		"gate.backlog_end":               float64(p.backlogEnd),
		"taskfarm.inject_to_done_ms_p99": durQuantileMS(farm, 0.99),
	}
	if len(msgs) > 0 {
		out["gate.jobs_per_injection"] = float64(len(queue)) / float64(len(msgs))
	}
	delta := p.post.Sub(p.pre)
	out["taskfarm.assign_wait_us_p99"] = histQuantile(delta, "taskfarm_assign_wait_ns", 0.99) / 1e3
	out["core.handler_us_p50"] = histQuantile(delta, "core_handler_nanos", 0.50) / 1e3
	out["core.handler_us_p99"] = histQuantile(delta, "core_handler_nanos", 0.99) / 1e3
	out["core.idle_frac"] = float64(delta.Value("core_idle_nanos_total")) / (float64(p.wall) * float64(st.tr.NumPE()))
	out["core.queue_depth_hw"] = float64(seriesMax(p.post, "core_queue_depth_high_water"))
	out["vmi.delay_occupancy_hw"] = float64(seriesMax(p.post, "vmi_delay_occupancy_high_water"))
	if done := len(p.latencies); done > 0 {
		out["taskfarm.grants_per_job"] = float64(delta.Value("taskfarm_grants_total")) / float64(done)
		out["core.msgs_per_step"] = float64(delta.Value("core_msgs_processed_total")) / float64(done)
	}
	for name, v := range overlapMetrics(st.tr, st.tr.NumPE()) {
		out[name] = v
	}
	return out
}
