package main

import (
	"math"
	rtm "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gridmdo/internal/metrics"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks; 0 for an empty slice. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// durQuantileMS is quantile over durations, in milliseconds.
func durQuantileMS(ds []time.Duration, q float64) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = ms(d)
	}
	return quantile(vals, q)
}

// fmtVals renders values compactly for a note line.
func fmtVals(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// histQuantile merges every series named name in snap (all label sets)
// and estimates the q-quantile from the cumulative buckets: geometric
// interpolation inside a bucket with a positive lower bound (the layouts
// are roughly logarithmic), linear inside the first. Observations past
// the last bound report that bound. 0 when the histogram is empty.
func histQuantile(snap metrics.Snapshot, name string, q float64) float64 {
	var bounds []int64
	var cum []int64
	var count int64
	for _, smp := range snap.Series {
		if smp.Name != name || smp.Kind != metrics.KindHistogram.String() {
			continue
		}
		if bounds == nil {
			for _, b := range smp.Bucket {
				bounds = append(bounds, b.LE)
			}
			cum = make([]int64, len(bounds))
		}
		for i, b := range smp.Bucket {
			if i < len(cum) {
				cum[i] += b.Count
			}
		}
		count += smp.Count
	}
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	var prevCum int64
	lo := 0.0
	for i, le := range bounds {
		if float64(cum[i]) >= rank {
			in := cum[i] - prevCum
			frac := 1.0
			if in > 0 {
				frac = (rank - float64(prevCum)) / float64(in)
			}
			hi := float64(le)
			if lo > 0 {
				return lo * math.Pow(hi/lo, frac)
			}
			return lo + (hi-lo)*frac
		}
		prevCum = cum[i]
		lo = float64(le)
	}
	return lo
}

// seriesMax is the largest value among the series named name.
func seriesMax(snap metrics.Snapshot, name string) int64 {
	var m int64
	for _, smp := range snap.Series {
		if smp.Name == name && smp.Value > m {
			m = smp.Value
		}
	}
	return m
}

// heapSampler tracks the peak of the Go heap (bytes in live and
// not-yet-swept objects) by polling runtime/metrics every 5 ms.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // since the last lap
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []rtm.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.observe(sample)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// observe reads the heap size into sample and raises the peak to it.
func (s *heapSampler) observe(sample []rtm.Sample) {
	rtm.Read(sample)
	if sample[0].Value.Kind() != rtm.KindUint64 {
		return
	}
	v := sample[0].Value.Uint64()
	for old := s.peak.Load(); v > old && !s.peak.CompareAndSwap(old, v); old = s.peak.Load() {
	}
}

// lap returns the peak in MiB since the previous lap (or the start),
// including the heap at this instant, and starts a new lap.
func (s *heapSampler) lap() float64 {
	s.observe([]rtm.Sample{{Name: heapObjects}})
	return float64(s.peak.Swap(0)) / (1 << 20)
}

// stopSampling ends sampling and waits for the sampling goroutine.
func (s *heapSampler) stopSampling() {
	close(s.stop)
	<-s.done
}
