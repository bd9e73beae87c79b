package taskfarm

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/metrics"
	"gridmdo/internal/topology"
)

// TestShardedChecksumMatchesSingleMaster is the acceptance bit-identity
// check: the sharded farm (with stealing and skew scrambling completion
// order) must produce the exact checksum of the single-master farm.
func TestShardedChecksumMatchesSingleMaster(t *testing.T) {
	single := &Params{Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond}
	sharded := &Params{
		Tasks: 500, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 4, Batch: 8, Steal: true, Seed: 42, CostSkew: 8,
	}
	rs := runFarm(t, single, 8, 2*time.Millisecond)
	rh := runFarm(t, sharded, 8, 2*time.Millisecond)
	if rs.Checksum != rh.Checksum {
		t.Errorf("checksum mismatch: single %#x, sharded %#x", rs.Checksum, rh.Checksum)
	}
	if want := ExpectedChecksum(500); rs.Checksum != want {
		t.Errorf("single-master checksum %#x, want %#x", rs.Checksum, want)
	}
	if math.Abs(rh.Sum-expectedSum(500)) > 1e-9 {
		t.Errorf("sharded sum = %v, want %v", rh.Sum, expectedSum(500))
	}
}

// TestShardedAllTasksExactlyOnce: per-worker and per-shard tallies must
// both account for every task exactly once, even when stealing moves
// ownership around.
func TestShardedAllTasksExactlyOnce(t *testing.T) {
	p := &Params{
		Tasks: 777, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 3, Batch: 4, Steal: true, Seed: 7, CostSkew: 4,
	}
	res := runFarm(t, p, 8, 2*time.Millisecond)
	totW, totS := 0, 0
	for _, n := range res.PerWorker {
		totW += n
	}
	for _, n := range res.PerShard {
		totS += n
	}
	if totW != 777 || totS != 777 {
		t.Errorf("per-worker sums to %d, per-shard to %d, want 777", totW, totS)
	}
	if res.Shards != 3 || len(res.PerShard) != 3 {
		t.Errorf("shard accounting: Shards=%d PerShard=%v", res.Shards, res.PerShard)
	}
}

// TestStealingUnderSkew: a linear cost ramp drains the cheap low-index
// shards early; with stealing on they must acquire work from the
// expensive end, and the acquired tasks must show up in the counters.
func TestStealingUnderSkew(t *testing.T) {
	p := &Params{
		Tasks: 600, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 4, Batch: 4, Steal: true, Seed: 1, CostSkew: 16,
	}
	res := runFarm(t, p, 8, time.Millisecond)
	if res.Steals == 0 {
		t.Fatal("no steals despite a 16x cost skew")
	}
	if res.StolenTask == 0 {
		t.Error("steals recorded but no tasks moved")
	}
	// Stealing must actually help: the same skewed farm without stealing
	// is bounded by the static owner of the expensive tail.
	q := *p
	q.Steal = false
	noSteal := runFarm(t, &q, 8, time.Millisecond)
	if res.Checksum != noSteal.Checksum {
		t.Errorf("stealing changed the checksum: %#x vs %#x", res.Checksum, noSteal.Checksum)
	}
	if float64(res.Makespan) > 0.95*float64(noSteal.Makespan) {
		t.Errorf("stealing did not help under skew: %v with vs %v without", res.Makespan, noSteal.Makespan)
	}
}

// TestShardingBeatsSingleMasterPastKnee reproduces the WRONJ knee in
// virtual time: with AT = 1ms and JT = 8ms a single dispatcher saturates
// at JT/AT = 8 workers. At 32 workers on 32 PEs the single master is
// assignment-bound (Tasks x AT); eight shards put each dispatcher well
// under its own knee (4 workers each), so the farm returns to being
// compute-bound.
func TestShardingBeatsSingleMasterPastKnee(t *testing.T) {
	const workers = 32
	base := Params{
		Tasks: 2048, Prefetch: 2, Workers: workers,
		TaskCost: 8 * time.Millisecond, AssignCost: time.Millisecond,
	}
	single := base
	sharded := base
	sharded.Shards = 8
	sharded.Batch = 1
	ms := runFarm(t, &single, workers, 0).Makespan
	mh := runFarm(t, &sharded, workers, 0).Makespan
	// Single master is assignment-bound: >= Tasks * AssignCost.
	if ms < 2048*time.Millisecond {
		t.Errorf("single-master makespan %v below the assignment bound", ms)
	}
	if float64(mh) > 0.4*float64(ms) {
		t.Errorf("8 shards gave %v vs single %v; want well under 0.4x past the knee", mh, ms)
	}
}

// TestBatchingAmortizesGrants: with Batch=16 the grant-message count must
// drop close to 16x (the guided taper grants the tail in slivers, so the
// ratio lands a little under the full factor), and the farm still
// completes every task.
func TestBatchingAmortizesGrants(t *testing.T) {
	run := func(batch int) (grants, granted int64, res *Result) {
		reg := metrics.NewRegistry()
		p := &Params{
			Tasks: 960, Prefetch: 2, TaskCost: time.Millisecond,
			Shards: 2, Batch: batch, Metrics: reg,
		}
		res = runFarm(t, p, 4, time.Millisecond)
		return reg.Counter("taskfarm_grants_total").Value(),
			reg.Counter("taskfarm_tasks_granted_total").Value(), res
	}
	g1, _, r1 := run(1)
	g16, granted16, r16 := run(16)
	if r1.Checksum != r16.Checksum {
		t.Errorf("batching changed the checksum: %#x vs %#x", r1.Checksum, r16.Checksum)
	}
	if g1 != 960 {
		t.Errorf("batch=1 sent %d grants, want 960", g1)
	}
	if lo, hi := int64(960/16), int64(960/8); g16 < lo || g16 > hi {
		t.Errorf("batch=16 sent %d grants, want within [%d,%d]", g16, lo, hi)
	}
	if granted16 != 960 {
		t.Errorf("batch=16 granted %d tasks, want 960", granted16)
	}
}

// TestShardedRealtime runs the sharded farm on the wall-clock runtime:
// same checksum, real spin work, steals possible.
func TestShardedRealtime(t *testing.T) {
	prog, err := BuildProgram(&Params{
		Tasks: 120, Prefetch: 2, Workers: 4, Spin: 5_000,
		Shards: 2, Batch: 4, Steal: true, Seed: 3, CostSkew: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.TwoClusters(4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(topo, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*Result)
	if res.Checksum != ExpectedChecksum(120) {
		t.Errorf("realtime sharded checksum %#x, want %#x", res.Checksum, ExpectedChecksum(120))
	}
	if res.Makespan <= 0 {
		t.Error("no makespan measured")
	}
}

// TestShardedMetrics: the published series must agree with the Result's
// own accounting.
func TestShardedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	p := &Params{
		Tasks: 400, Prefetch: 2, TaskCost: time.Millisecond,
		Shards: 4, Batch: 4, Steal: true, Seed: 9, CostSkew: 8,
		Metrics: reg,
	}
	res := runFarm(t, p, 8, time.Millisecond)
	if got := reg.Counter("taskfarm_tasks_granted_total").Value(); got != 400 {
		t.Errorf("granted counter %d, want 400", got)
	}
	if got := reg.Counter("taskfarm_steals_total").Value(); got != int64(res.Steals) {
		t.Errorf("steals counter %d, Result says %d", got, res.Steals)
	}
	if got := reg.Counter("taskfarm_stolen_tasks_total").Value(); got != int64(res.StolenTask) {
		t.Errorf("stolen counter %d, Result says %d", got, res.StolenTask)
	}
	var perShard int64
	for i := 0; i < p.Shards; i++ {
		perShard += reg.Counter("taskfarm_shard_tasks_total", metrics.L("shard", string(rune('0'+i)))).Value()
	}
	if perShard != 400 {
		t.Errorf("per-shard counters sum to %d, want 400", perShard)
	}
	if reg.Histogram("taskfarm_assign_wait_ns", metrics.DurationBuckets).Count() == 0 {
		t.Error("no assignment waits observed")
	}
}

// TestShardedValidation covers the sharded-specific error paths.
func TestShardedValidation(t *testing.T) {
	bad := []*Params{
		{Tasks: 1, Prefetch: 1, Shards: -1},
		{Tasks: 1, Prefetch: 1, Batch: -2},
		{Tasks: 1, Prefetch: 1, AssignCost: -time.Second},
		{Tasks: 1, Prefetch: 1, CostSkew: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	// More shards than workers cannot grant everywhere; must be rejected.
	if _, err := BuildProgram(&Params{Tasks: 10, Prefetch: 1, Workers: 2, Shards: 4}); err == nil {
		t.Error("4 shards over 2 workers accepted")
	}
}

// TestBatchCodecRoundTrip pins every sharded-protocol payload through the
// full wire codec with concrete-type equality, like
// TestWireCodecPayloadKinds does for the built-ins.
func TestBatchCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		data any
	}{
		{"task-batch", taskBatchMsg{Shard: 3, Ranges: []taskRange{{Lo: 100, N: 16}, {Lo: 900, N: 4}}, bytes: 640}},
		{"task-batch-empty", taskBatchMsg{Shard: 0}},
		{"result-batch", resultBatchMsg{Worker: 7, Done: 16, Sum: 17.25, Check: 0xDEADBEEF, bytes: 640}},
		{"result-batch-serve", resultBatchMsg{Worker: 7, Done: 3, Sum: 3.5, Check: 99,
			Ranges: []taskRange{{Lo: 40, N: 2}, {Lo: 99, N: 1}}, Values: []float64{1.5, 1.25, 0.75}, bytes: 192}},
		{"steal-req", stealReqMsg{Thief: 2}},
		{"steal-rsp", stealRspMsg{Victim: 1, Ranges: []taskRange{{Lo: 5000, N: 123}}}},
		{"steal-rsp-empty", stealRspMsg{Victim: 1}},
		{"progress", progressMsg{Shard: 2, Done: 8, Sum: -3.5, Check: 42}},
		{"progress-serve", progressMsg{Shard: 2, Done: 2, Sum: 2.5, Check: 7,
			Ranges: []taskRange{{Lo: 10, N: 2}}, Values: []float64{1.0, 1.5}}},
		{"submit", submitMsg{Ranges: []taskRange{{Lo: 0, N: 64}}}},
		{"submit-empty", submitMsg{}},
		{"report", shardReportMsg{Shard: 1, PerW: []int32{10, 0, 32}, Granted: 42, Steals: 2, StealFails: 1, Stolen: 20, Victimized: 4}},
		{"task", taskMsg{Seq: 9000, bytes: 64}},
		{"result", resultMsg{Seq: 9000, Worker: 3, Value: math.Pi, bytes: 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: ArrayShard, Index: 1}, Data: tc.data}
			b, err := core.EncodeMessage(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := core.DecodeMessage(b)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPayload(out.Data, tc.data) {
				t.Errorf("payload: got %#v, want %#v", out.Data, tc.data)
			}
		})
	}
}

// equalPayload compares protocol payloads treating nil and empty range
// slices as equal (the codec does not distinguish them).
func equalPayload(a, b any) bool {
	switch x := a.(type) {
	case taskBatchMsg:
		y, ok := b.(taskBatchMsg)
		return ok && x.Shard == y.Shard && x.bytes == y.bytes && equalRanges(x.Ranges, y.Ranges)
	case stealRspMsg:
		y, ok := b.(stealRspMsg)
		return ok && x.Victim == y.Victim && equalRanges(x.Ranges, y.Ranges)
	case resultBatchMsg:
		y, ok := b.(resultBatchMsg)
		return ok && x.Worker == y.Worker && x.Done == y.Done && x.Sum == y.Sum &&
			x.Check == y.Check && x.bytes == y.bytes &&
			equalRanges(x.Ranges, y.Ranges) && equalValues(x.Values, y.Values)
	case progressMsg:
		y, ok := b.(progressMsg)
		return ok && x.Shard == y.Shard && x.Done == y.Done && x.Sum == y.Sum &&
			x.Check == y.Check && equalRanges(x.Ranges, y.Ranges) && equalValues(x.Values, y.Values)
	case submitMsg:
		y, ok := b.(submitMsg)
		return ok && equalRanges(x.Ranges, y.Ranges)
	case shardReportMsg:
		y, ok := b.(shardReportMsg)
		if !ok || x.Shard != y.Shard || x.Granted != y.Granted || x.Steals != y.Steals ||
			x.StealFails != y.StealFails || x.Stolen != y.Stolen || x.Victimized != y.Victimized ||
			len(x.PerW) != len(y.PerW) {
			return false
		}
		for i := range x.PerW {
			if x.PerW[i] != y.PerW[i] {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRanges(a, b []taskRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzBatchCodec round-trips fuzzed batch-protocol messages through the
// wire codec and asserts byte-for-byte stability, mirroring
// core.FuzzWireCodec for the application payloads.
func FuzzBatchCodec(f *testing.F) {
	f.Add(uint8(0), int64(0), int64(1), int64(100), uint64(7))
	f.Add(uint8(1), int64(3), int64(-5), int64(1<<40), uint64(1)<<63)
	f.Add(uint8(5), int64(200), int64(17), int64(0), uint64(0xFFFFFFFFFFFFFFFF))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c int64, u uint64) {
		ranges := []taskRange{{Lo: b, N: c & 0xFFFF}, {Lo: b + (c & 0xFF), N: a & 0xFF}}
		var data any
		switch kind % 6 {
		case 0:
			data = taskBatchMsg{Shard: int32(a), Ranges: ranges, bytes: int(c & 0xFFFF)}
		case 1:
			data = resultBatchMsg{Worker: int32(a), Done: int32(b), Sum: math.Float64frombits(u), Check: u, bytes: int(c & 0xFFFF)}
		case 2:
			data = stealReqMsg{Thief: int32(a)}
		case 3:
			data = stealRspMsg{Victim: int32(a), Ranges: ranges}
		case 4:
			data = progressMsg{Shard: int32(a), Done: int32(b), Sum: math.Float64frombits(u), Check: u}
		case 5:
			data = shardReportMsg{Shard: int32(a), PerW: []int32{int32(b), int32(c)}, Granted: c, Steals: a, StealFails: b, Stolen: c, Victimized: a}
		}
		in := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: ArrayShard, Index: int(a & 0xFFFF)}, Data: data}
		enc1, err := core.EncodeMessage(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := core.DecodeMessage(enc1)
		if err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		enc2, err := core.EncodeMessage(out)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("batch codec not byte-stable:\n first %x\nsecond %x", enc1, enc2)
		}
	})
}

// BenchmarkTaskBatchCodec measures one encode+decode of a one-range
// grant, the farm's most frequent message on a TCP deployment.
func BenchmarkTaskBatchCodec(b *testing.B) {
	m := &core.Message{Kind: core.KindApp, To: core.ElemRef{Array: 0, Index: 2}, Data: taskBatchMsg{Shard: 1, Ranges: []taskRange{{Lo: 4096, N: 8}}, bytes: 8 * 64}}
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = core.AppendMessage(buf[:0], m); err != nil {
			b.Fatal(err)
		}
		if _, err := core.DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "wire-bytes")
}

// shardTestParams builds a Params good for PUP testing.
func shardTestParams() *Params {
	return &Params{Tasks: 1000, Prefetch: 2, Workers: 8, Shards: 4, Batch: 8, Steal: true, Seed: 5}
}

// TestShardPUPRoundTrip: pack a mid-run shard, restore it into a fresh
// element, and require the repack to be byte-identical.
func TestShardPUPRoundTrip(t *testing.T) {
	p := shardTestParams()
	s := newShard(p, 1, newFarmMetrics(p))
	// Mutate into a mid-run state: partial grants, a steal in flight.
	s.popFront(100)
	s.pending = append(s.pending, taskRange{Lo: 900, N: 25})
	s.avail += 25
	s.out[0], s.out[1] = 2, 1
	s.perW[0], s.perW[1] = 48, 52
	s.granted, s.grants = 103, 17
	s.steals, s.stealFails = 2, 1
	s.stolenIn, s.victimized = 25, 10
	s.fails = 1
	s.stealing = true
	s.nextRand()

	data, err := core.PUPPack(s)
	if err != nil {
		t.Fatal(err)
	}
	r := newShard(p, 1, newFarmMetrics(p))
	if err := core.PUPUnpack(r, data); err != nil {
		t.Fatal(err)
	}
	if r.avail != s.avail || !equalRanges(r.pending, s.pending) {
		t.Errorf("deque not restored: avail %d vs %d, pending %v vs %v", r.avail, s.avail, r.pending, s.pending)
	}
	if r.rng != s.rng || r.fails != s.fails || r.stealing != s.stealing {
		t.Error("steal state not restored")
	}
	data2, err := core.PUPPack(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("repack differs from original pack")
	}
}

// TestRootPUPRoundTrip: same discipline for the root collector.
func TestRootPUPRoundTrip(t *testing.T) {
	p := shardTestParams()
	r := &root{p: p, shards: 4, workers: 8,
		started: 5 * time.Millisecond, makespan: 0,
		done: 400, sum: 123.5, check: 0xABCD, reports: 0,
		perW: []int{50, 50, 50, 50, 50, 50, 50, 50}, perShard: []int{100, 100, 100, 100},
	}
	data, err := core.PUPPack(r)
	if err != nil {
		t.Fatal(err)
	}
	q := &root{p: p, shards: 4, workers: 8}
	if err := core.PUPUnpack(q, data); err != nil {
		t.Fatal(err)
	}
	if q.done != 400 || q.check != 0xABCD || len(q.perW) != 8 {
		t.Errorf("root not restored: %+v", q)
	}
	data2, err := core.PUPPack(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("repack differs from original pack")
	}
	// A checkpoint from a different shard count must be rejected.
	bad := &root{p: p, shards: 2, workers: 8}
	if err := core.PUPUnpack(bad, data); err == nil {
		t.Error("restore accepted a checkpoint with the wrong shard count")
	}
}

// FuzzShardPUP feeds arbitrary bytes to the shard restore path of a
// batch farm and of a serve farm (whose open task space bounds no range
// count): it must error or restore, never panic, and a successful restore
// must repack.
func FuzzShardPUP(f *testing.F) {
	p := shardTestParams()
	sp := &Params{Serve: true, Prefetch: 2, Workers: 8, Shards: 4, Batch: 8, Steal: true, Seed: 5}
	if data, err := core.PUPPack(newShard(p, 0, newFarmMetrics(p))); err == nil {
		f.Add(data)
	}
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	serve := newShard(sp, 0, newFarmMetrics(sp))
	serve.pending = []taskRange{{Lo: 40, N: 8}, {Lo: 96, N: 3}}
	serve.outRanges[1] = []taskRange{{Lo: 0, N: 16}}
	if data, err := core.PUPPack(serve); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, q := range []*Params{p, sp} {
			s := newShard(q, 0, newFarmMetrics(q))
			if err := core.PUPUnpack(s, data); err != nil {
				continue
			}
			if _, err := core.PUPPack(s); err != nil {
				t.Fatalf("restored shard (serve %v) cannot repack: %v", q.Serve, err)
			}
		}
	})
}

// TestImbalance pins the helper's edge cases.
func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 0 {
		t.Errorf("Imbalance(nil) = %v", got)
	}
	if got := Imbalance([]int{5, 0, 5}); got != 0 {
		t.Errorf("Imbalance with a zero entry = %v", got)
	}
	if got := Imbalance([]int{2, 8}); got != 4 {
		t.Errorf("Imbalance([2 8]) = %v, want 4", got)
	}
}
