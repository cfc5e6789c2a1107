package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := (samples{5}).percentile(0.99); got != 5 {
		t.Errorf("p99 of one sample = %d", got)
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("p50 of no samples = %d", got)
	}
	if got := (samples{3, 1, 2}).sorted(); got[0] != 1 || got[2] != 3 {
		t.Errorf("sorted = %v", got)
	}
	if got := (samples{1, 2, 6}).mean(); got != 3 {
		t.Errorf("mean = %d", got)
	}
}

func TestTailQuantileSampleCounts(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {400, 0.975}, {20, 0.5}, {10, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestWindowFigures checks that a window's quantiles and throughput are
// taken over every request of the window, so a stall in part of it moves
// them.
func TestWindowFigures(t *testing.T) {
	w := &window{elapsed: 2 * time.Second}
	for j := 1; j <= 1000; j++ {
		w.rec.add(opGGet, time.Duration(j), 0, false)
	}
	// A stall: 20 slow reads and no writes for part of the window.
	for j := 0; j < 20; j++ {
		w.rec.add(opGGet, 10000, 0, false)
	}
	if got := w.quantile(0.99, opGGet); got != 10000 {
		t.Errorf("p99 = %d, want the stall's 10000", got)
	}
	if got := w.quantile(0.5, opGGet); got != 510 {
		t.Errorf("p50 = %d, want 510", got)
	}
	for j := 0; j < 380; j++ {
		w.rec.add(opGPut, 1, 0, false)
	}
	if got := w.throughput(); got != 700 {
		t.Errorf("throughput = %g, want 1400 requests / 2 s = 700/s", got)
	}
	var r recorder
	r.add(opGetUser, 5, 2, true)
	r.add(opGGet, 5, 0, false)
	if len(r.late) != 1 || r.count(opGetUser, opGGet) != 2 {
		t.Errorf("recorder: late %v, count %d", r.late, r.count(opGetUser, opGGet))
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// sampleWindow is a window holding a few requests of every kind.
func sampleWindow() *window {
	w := &window{elapsed: time.Second}
	for k := range opNames {
		w.rec.add(opKind(k), time.Millisecond, 0, false)
	}
	return w
}

// checkNames compares the names and units a run prints with a list from
// BENCHMARK.json, in both directions.
func checkNames(t *testing.T, what string, printed []metric, listed []struct{ Name, Unit string }) {
	t.Helper()
	units := map[string]string{}
	for _, l := range listed {
		units[l.Name] = l.Unit
	}
	seen := map[string]bool{}
	for _, m := range printed {
		if !metricName.MatchString(m.name) {
			t.Errorf("%s: printed name %q is not [A-Za-z0-9_.-]+", what, m.name)
		}
		if seen[m.name] {
			t.Errorf("%s: %s printed twice", what, m.name)
		}
		seen[m.name] = true
		u, ok := units[m.name]
		if !ok {
			t.Errorf("%s: printed %s is not in BENCHMARK.json", what, m.name)
		} else if u != m.unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", what, m.name, m.unit, u)
		}
	}
	for _, l := range listed {
		if !seen[l.Name] {
			t.Errorf("%s: BENCHMARK.json lists %s, which is not printed", what, l.Name)
		}
	}
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		e2e := e2eMetrics(e2eResult{
			setups: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second},
			win:    sampleWindow(), rights: sampleWindow(), rssMB: 100, recoveries: []time.Duration{time.Second},
		})
		checkNames(t, w.name+" end_to_end", e2e, f.EndToEnd)
		tr := &tracer{}
		l := newLadder(w, 1, t.TempDir(), tr)
		for _, name := range []string{"core.put", "core.get", "core.getuser", "core.export", "core.forget",
			"store.setex", "store.get", "aof.append", "audit.append", "cryptoutil.seal", "cryptoutil.open"} {
			l.us[name] = samples{time.Microsecond}
		}
		layer := layerMetrics(layerResult{w: w, untraced: sampleWindow(), traced: sampleWindow(),
			rightsWin: sampleWindow(), ladder: l})
		checkNames(t, w.name+" per_layer", layer, f.PerLayer)
		if _, err := resultLine(true, 1, 0, append(e2e, layer...)); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	// strict-realtime runs by hand (paper_ratio.sh) but is not gated: its
	// fsync-bound figures swing by more than a bound allows (README.md).
	if len(names) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark gates %d", names, len(workloads)-1)
	}
}

// TestGrowthOnDisk checks the AOF byte count: growth on disk from the size
// the file had when watching began, and a shrink counted as a rewrite that
// wrote the smaller file, never as negative growth.
func TestGrowthOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "appendonly.aof")
	if err := os.WriteFile(path, make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	g := watchGrowth(path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 300))
	f.Close()
	if appended, rewrites := g.finish(); appended != 300 || rewrites != 0 {
		t.Errorf("append: %d bytes, %d rewrites; want 300, 0", appended, rewrites)
	}

	g = &growth{last: 1300}
	g.observe(1400) // +100
	g.observe(200)  // rewritten to 200 bytes
	g.observe(250)  // +50
	if g.appended != 350 || g.rewrites != 1 {
		t.Errorf("rewrite: %d bytes, %d rewrites; want 350, 1", g.appended, g.rewrites)
	}
}
