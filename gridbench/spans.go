package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The benchmark's own spans. A traced run records one span around each
// call the benchmark makes into a layer (Transport.Send, the codec
// replay, an HTTP POST, the gateway's Observer hooks, Engine.Run, the
// sequential references), parented under the rep, phase or job that
// caused it. Spans are kept in memory and written out when the run ends;
// a layer's self time is its span's duration minus the part of that
// interval its child spans cover.

// span is one recorded interval. Times are relative to the recorder's
// epoch.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"` // 0: a root
	Name   string        `json:"name"`
	Key    int64         `json:"key"` // rep, step or job number
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// maxSpans caps the leaf spans kept in memory; later leaves are counted
// as dropped. A span whose ID was reserved with newID (every parent) is
// always kept, so the tree stays complete.
const maxSpans = 1 << 20

// recorder collects spans. A nil *recorder records nothing, so untraced
// runs pass nil and pay one branch per call site.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	nextID  uint64
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the current offset from the epoch (0 on a nil recorder).
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// at converts a wall-clock instant to an offset from the epoch.
func (r *recorder) at(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// newID reserves a span ID, so a parent can hand its ID to children
// before it has ended. 0 on a nil recorder.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span; a leaf (ID 0) is assigned an ID.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		if len(r.spans) >= maxSpans {
			r.dropped++
			return
		}
		r.nextID++
		s.ID = r.nextID
	}
	r.spans = append(r.spans, s)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// childCoverage returns, per span ID, how much of the span's interval its
// children cover (the union of the child intervals clipped to the
// parent, so overlapping concurrent children count once).
func childCoverage(spans []span) map[uint64]time.Duration {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	cover := make(map[uint64]time.Duration, len(kids))
	for pid, cs := range kids {
		p, ok := byID[pid]
		if !ok {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var total time.Duration
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			s, e := max(c.Start, p.Start), min(c.End, p.End)
			if e <= s {
				continue
			}
			if s > curE {
				total += curE - curS
				curS, curE = s, e
				continue
			}
			curE = max(curE, e)
		}
		total += curE - curS
		cover[pid] = total
	}
	return cover
}

// selfTimes sums duration and self time (duration minus child coverage)
// per span name, sorted by self time, largest first.
func selfTimes(spans []span) []selfStat {
	cover := childCoverage(spans)
	agg := map[string]*selfStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - cover[s.ID]
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// checkTree verifies the span tree is complete: every parent is present,
// every child lies inside its parent's interval, and no parent's child
// coverage exceeds its duration.
func checkTree(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span ID %d recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%v,%v] outside parent %d (%s) [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for id, c := range childCoverage(spans) {
		if p := byID[id]; c > p.dur() {
			return fmt.Errorf("span %d (%s): children cover %v of %v", id, p.Name, c, p.dur())
		}
	}
	return nil
}

// spanFileHeader is the first line of a span file.
type spanFileHeader struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	HostCores  int        `json:"host_cores"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Spans      int        `json:"spans"`
	Dropped    int64      `json:"dropped"`
	SelfTimes  []selfStat `json:"self_times"`
}

// writeSpanFile writes dir/<workload>-seed<seed>.spans.jsonl: a header
// line (host, counts, per-name self times) followed by one span per line.
func writeSpanFile(dir string, hdr spanFileHeader, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", hdr.Workload, hdr.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(hdr)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write span file %s: %w", path, err)
	}
	return path, nil
}
