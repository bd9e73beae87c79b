package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// runTiny runs one workload at smoke-test size and returns its stdout
// lines and the parsed result line.
func runTiny(t *testing.T, workload string, traced int, spans string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.3",
		"--trace", []string{"0", "1"}[traced], "--spans", spans}
	if code := run(args, &stdout, &stderr, true); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\nstdout:\n%s\nstderr:\n%s", workload, traced, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v\n%s", workload, traced, err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: result %+v\n%s", workload, traced, res, stdout.String())
	}
	return lines, res
}

// appliesTo reports whether a catalog entry's workload list names w.
func appliesTo(d metricDef, w string) bool {
	return d.where == "all" || slices.Contains(strings.Split(d.where, ","), w)
}

// metricLine matches "metric <name> <number> <unit>".
var metricLine = regexp.MustCompile(`^metric (\S+) (-?[0-9.e+-]+|NaN|[+-]Inf) (\S+)`)

func printed(lines []string) map[string]string {
	units := map[string]string{}
	for _, l := range lines {
		if m := metricLine.FindStringSubmatch(l); m != nil {
			units[m[1]] = m[3]
		}
	}
	return units
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every metric named for it is printed with its unit and that
// the result line carries exactly the catalog's metrics.
func TestSmoke(t *testing.T) {
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			lines, res := runTiny(t, w, 0, t.TempDir())
			units := printed(lines)
			for _, d := range detailEndToEnd {
				if appliesTo(d, w) && units[d.name] != d.unit {
					t.Errorf("metric %s: printed unit %q, want %q", d.name, units[d.name], d.unit)
				}
			}
			checkResultMetrics(t, res, jsonEndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			lines, res = runTiny(t, w, 1, t.TempDir())
			units = printed(lines)
			for _, d := range perLayer {
				if units[d.name] != d.unit {
					t.Errorf("metric %s: printed unit %q, want %q", d.name, units[d.name], d.unit)
				}
			}
			checkResultMetrics(t, res, perLayer)
		})
	}
}

func checkResultMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("result metric %s = %+v, want unit %q", d.name, m, d.unit)
		}
	}
}

// readSpanFile parses a span file written by writeSpanFile.
func readSpanFile(t *testing.T, path string) (spanFileHeader, []span) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var hdr spanFileHeader
	var spans []span
	for i := 0; sc.Scan(); i++ {
		if i == 0 {
			err = json.Unmarshal(sc.Bytes(), &hdr)
		} else {
			var s span
			err = json.Unmarshal(sc.Bytes(), &s)
			spans = append(spans, s)
		}
		if err != nil {
			t.Fatalf("%s line %d: %v", path, i+1, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hdr, spans
}

// TestTracedSpanTree checks the span file of every workload's traced run:
// the tree is complete (every parent present, children inside their
// parent, child coverage never above the parent's duration), the layer
// calls the workload makes are all there, and the header agrees.
func TestTracedSpanTree(t *testing.T) {
	want := map[string][]string{
		wStencil: {"run", "rep", "vmi.send", "stencil.RunSequential", "core.codec_replay", "core.DecodeMessage", "core.AppendMessage"},
		wLeanMD:  {"run", "rep", "vmi.send", "leanmd.DecomposedForces", "core.codec_replay", "core.DecodeMessage", "core.AppendMessage"},
		wGate:    {"run", "phase.heavy", "job", "http.POST", "gate.queue", "taskfarm.exec"},
		wSim:     {"run", "rep", "sim.sequential", "topology.Build", "sim.new", "sim.Engine.Run"},
	}
	for w, names := range want {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			runTiny(t, w, 1, dir)
			hdr, spans := readSpanFile(t, filepath.Join(dir, w+"-seed7.spans.jsonl"))
			if hdr.Spans != len(spans) || hdr.Dropped != 0 || hdr.HostCores < 1 || hdr.GOMAXPROCS < 1 {
				t.Errorf("header %+v for %d spans", hdr, len(spans))
			}
			if err := checkTree(spans); err != nil {
				t.Fatal(err)
			}
			roots := 0
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.Name] = true
				if s.Parent == 0 {
					roots++
				}
			}
			if roots != 1 {
				t.Errorf("%d root spans, want 1", roots)
			}
			for _, n := range names {
				if !seen[n] {
					t.Errorf("no %q span", n)
				}
			}
		})
	}
}

// TestCheckTreeRejects shows the tree check catches each defect.
func TestCheckTreeRejects(t *testing.T) {
	ms := time.Millisecond
	root := span{ID: 1, Name: "run", Start: 0, End: 10 * ms}
	cases := map[string][]span{
		"missing parent": {root, {ID: 2, Parent: 9, Name: "x", Start: ms, End: 2 * ms}},
		"outside parent": {root, {ID: 2, Parent: 1, Name: "x", Start: 5 * ms, End: 11 * ms}},
		"negative":       {root, {ID: 2, Parent: 1, Name: "x", Start: 5 * ms, End: 4 * ms}},
		"duplicate ID":   {root, {ID: 1, Name: "again", Start: 0, End: ms}},
	}
	for name, spans := range cases {
		if checkTree(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := []span{root,
		{ID: 2, Parent: 1, Name: "a", Start: ms, End: 6 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 4 * ms, End: 8 * ms}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "b", Start: 5 * ms, End: 6 * ms},
	}
	if err := checkTree(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	self := map[string]time.Duration{}
	for _, s := range selfTimes(ok) {
		self[s.Name] = s.Self
	}
	// run: 10ms minus the union [1,8] of its children; a: 5+4 minus b's 1.
	if self["run"] != 3*ms || self["a"] != 8*ms || self["b"] != ms {
		t.Errorf("self times %v", self)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the catalog.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok || w.Why == "" {
			t.Errorf("workload %+v", w)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(workloads))
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, catalog has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, catalog %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, jsonEndToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		row := fmt.Sprintf("| %s | `%s` | %s | %s | %s | %s |",
			d.layer, d.name, d.unit, d.better, d.moves, strings.ReplaceAll(d.where, ",", ", "))
		if !bytes.Contains(readme, []byte(row)) {
			t.Errorf("README.md has no table row %q", row)
		}
	}
}
