package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"gridmdo/internal/core"
	"gridmdo/internal/topology"
)

func buildSpec(t *testing.T, text string) *topology.Topology {
	t.Helper()
	s, err := topology.ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestParallelShardsAlignToClusters: with a cluster per worker to spare,
// every shard is a whole cluster and the window is the WAN delay; with
// too few clusters they are split and the window is the intra hop.
func TestParallelShardsAlignToClusters(t *testing.T) {
	topo := buildSpec(t, "16x64;wan=5ms;mesh=rand:1:2ms:10ms")
	e, err := NewParallel(topo, pingPongProgram(t), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Shards != 16 {
		t.Fatalf("16 clusters, 2 workers: %d shards, want 16", st.Shards)
	}
	if st.Lookahead < 2*time.Millisecond {
		t.Fatalf("cluster-aligned lookahead %v, want >= the 2ms mesh floor", st.Lookahead)
	}
	for pe := 0; pe < topo.NumPE(); pe++ {
		if int(e.shardOf[pe]) != int(topo.Cluster(pe)) {
			t.Fatalf("PE %d of cluster %d in shard %d", pe, topo.Cluster(pe), e.shardOf[pe])
		}
	}

	topo = buildSpec(t, "2x4;wan=2ms")
	e, err = NewParallel(topo, pingPongProgram(t), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Shards <= topo.NumClusters() {
		t.Fatalf("2 clusters, 4 workers: %d shards, want the clusters split", st.Shards)
	}
	if intra := topo.LinkBetween(0, 1).Delay(0); st.Lookahead != intra {
		t.Fatalf("split-cluster lookahead %v, want the intra delay %v", st.Lookahead, intra)
	}
}

// TestParallelShardsBalanceUnevenClusters: more clusters than shards are
// packed contiguously, balanced by PE count, never splitting a cluster.
func TestParallelShardsBalanceUnevenClusters(t *testing.T) {
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 1 + i%7
	}
	topo, err := topology.New(sizes, topology.WithInterLatency(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	shardOf := shardLayout(topo, 2)
	n := int(shardOf[len(shardOf)-1]) + 1
	if n < 2 || n > 16 {
		t.Fatalf("%d shards, want 2..16", n)
	}
	counts := make([]int, n)
	for pe, s := range shardOf {
		if pe > 0 && s != shardOf[pe-1] && s != shardOf[pe-1]+1 {
			t.Fatalf("shard ids jump at PE %d: %d after %d", pe, s, shardOf[pe-1])
		}
		if topo.SameCluster(pe, max(pe-1, 0)) && s != shardOf[max(pe-1, 0)] {
			t.Fatalf("cluster %d split at PE %d", topo.Cluster(pe), pe)
		}
		counts[s]++
	}
	mean := float64(topo.NumPE()) / float64(n)
	for s, c := range counts {
		if float64(c) > 2*mean {
			t.Errorf("shard %d holds %d PEs, mean %.1f", s, c, mean)
		}
	}
}

// TestParallelZeroDelayIntraLinks: zero-delay links inside a cluster
// never cross a cluster-aligned shard, so the engine accepts the machine
// and still replays the sequential run bit for bit.
func TestParallelZeroDelayIntraLinks(t *testing.T) {
	for _, app := range confApps() {
		ref := runConfOn(t, cleanTopo(t, 4, 5*time.Millisecond), "clean", app, Options{}, 0)
		got := runConfOn(t, cleanTopo(t, 4, 5*time.Millisecond), "clean", app, Options{}, 2)
		if got.stats.Lookahead != 5*time.Millisecond {
			t.Errorf("%s: lookahead %v, want the 5ms WAN", app.name, got.stats.Lookahead)
		}
		compareConf(t, app.name+"/zero-intra", ref, got)
	}
}

// TestParallelWindowStats: the sequential engine runs no windows; the
// parallel engine counts one per barrier, and cluster-aligned shards need
// fewer of them than split clusters for the same run.
func TestParallelWindowStats(t *testing.T) {
	app := confApps()[0]
	ref := runConf(t, "4x4;wan=2ms", app, Options{}, 0)
	if ref.stats.Windows != 0 || ref.stats.Rewound != 0 {
		t.Fatalf("sequential run: windows=%d rewound=%d, want 0", ref.stats.Windows, ref.stats.Rewound)
	}
	aligned := runConf(t, "4x4;wan=2ms", app, Options{}, 2)
	split := runConf(t, "4x4;wan=2ms", app, Options{}, 8)
	compareConf(t, "aligned", ref, aligned)
	compareConf(t, "split", ref, split)
	if aligned.stats.Windows == 0 || aligned.stats.Windows >= split.stats.Windows {
		t.Errorf("windows: aligned %d, split %d; want 0 < aligned < split", aligned.stats.Windows, split.stats.Windows)
	}
}

// TestParallelRewoundCount: a shard that ran past another shard's exit
// undoes those events, and reports how many. One worker runs the shards
// in order, so the spinning shard 0 always finishes its window before
// shard 1 exits inside it. A window longer than one lookahead after a
// lone-shard window would commit spins past the exit that could not be
// undone.
func TestParallelRewoundCount(t *testing.T) {
	build := func() *core.Program {
		return &core.Program{
			Arrays: []core.ArraySpec{{
				ID: 0, N: 8,
				New: func(i int) core.Chare {
					return funcChare(func(ctx *core.Ctx, entry core.EntryID, data any) {
						switch {
						case ctx.Elem().Index == 0: // shard 0: spin on itself
							ctx.Charge(100 * time.Microsecond)
							ctx.Send(ctx.Elem(), 0, nil)
						case data == nil: // shard 1: exit on the second visit
							ctx.Charge(time.Millisecond)
							ctx.Send(ctx.Elem(), 0, true)
						default:
							ctx.ExitWith("done")
						}
					})
				},
				Map: func(i, numPE int) int { return i % numPE },
			}},
			Start: func(ctx *core.Ctx) {
				ctx.Send(core.ElemRef{Array: 0, Index: 0}, 0, nil)
				ctx.Send(core.ElemRef{Array: 0, Index: 4}, 0, nil)
			},
		}
	}
	topo := buildSpec(t, "2x4;wan=2ms")
	seq, err := New(topo, build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallel(topo, build(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, seqVT, _ := seq.Run()
	_, parVT, _ := par.Run()
	ss, ps := seq.Stats(), par.Stats()
	if parVT != seqVT || ps.Events != ss.Events {
		t.Fatalf("parallel stop at %v after %d events, sequential %v after %d", parVT, ps.Events, seqVT, ss.Events)
	}
	if ps.Rewound == 0 {
		t.Fatal("the spinning shard ran past the exit but nothing was rewound")
	}
}

// TestEventHeapOrder: pops come out in (at, kind, key) order.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h eventHeap
	var want []event
	for i := 0; i < 2000; i++ {
		ev := event{at: time.Duration(rng.Intn(50)), kind: evKind(rng.Intn(2)), key: uint64(i)}
		h.push(ev)
		want = append(want, ev)
		if rng.Intn(3) == 0 {
			sort.Slice(want, func(a, b int) bool { return want[a].before(&want[b]) })
			if got := h.pop(); got != want[0] {
				t.Fatalf("pop %+v, want %+v", got, want[0])
			}
			want = want[1:]
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a].before(&want[b]) })
	for _, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("drain pop %+v, want %+v", got, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d events left", len(h))
	}
}

// TestEventHeapNoAllocs: push and pop do not allocate once the backing
// array has grown.
func TestEventHeapNoAllocs(t *testing.T) {
	h := make(eventHeap, 0, 64)
	for i := 0; i < 32; i++ {
		h.push(event{at: time.Duration(i * 7 % 32), key: uint64(i)})
	}
	i := uint64(100)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		h.push(event{at: time.Duration(i % 64), key: i})
		h.pop()
	})
	if allocs != 0 {
		t.Fatalf("eventHeap push+pop: %v allocs, want 0", allocs)
	}
}
