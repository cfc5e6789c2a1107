package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"time"
)

// metric is one reported number. n is the number of samples it rests on
// (0 when it is a count, a ratio of counters or a derived value).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// e2eResult is what an untraced run measured.
type e2eResult struct {
	setups     []time.Duration
	win        *window
	rights     *window // where the rights requests ran: the timed window or the probe
	rssMB      float64
	recoveries []time.Duration
}

// quantile is the p-quantile of every request of the given kinds in the
// window.
func (w *window) quantile(p float64, kinds ...opKind) time.Duration {
	return w.rec.joined(kinds...).sorted().percentile(p)
}

// latency is the gated q-quantile of the requests of the given kinds.
func latency(name string, q float64, w *window, kinds ...opKind) metric {
	return metric{name, us(w.quantile(q, kinds...)), "us", w.rec.count(kinds...)}
}

// tailNote reports the quantiles the gate leaves out, with their sample
// counts: the data path's 99th percentile and the rights requests' 90th
// and 99th (or the highest quantile the count supports). On a shared
// two-core host these moved by more between runs of the same code than
// the largest bound a gated metric may have.
func tailNote(r e2eResult) string {
	part := func(name string, q float64, w *window, kinds ...opKind) string {
		n := w.rec.count(kinds...)
		q = min(q, tailQuantile(n))
		return fmt.Sprintf("%s p%.4g=%.1fus (n=%d)", name, 100*q, us(w.quantile(q, kinds...)), n)
	}
	return "tails (not gated): " + strings.Join([]string{
		part("gput", 0.99, r.win, opGPut), part("gget", 0.99, r.win, opGGet),
		part("rights", 0.9, r.rights, opGetUser, opExportUser), part("rights", 0.99, r.rights, opGetUser, opExportUser),
	}, ", ")
}

// throughput is completed GGET+GPUT per second over the whole window.
func (w *window) throughput() float64 {
	return float64(w.rec.count(opGPut, opGGet)) / w.elapsed.Seconds()
}

// e2eMetrics are the gated end-to-end metrics, in BENCHMARK.json order.
func e2eMetrics(r e2eResult) []metric {
	setup := append(samples(nil), r.setups...).sorted()
	recovery := append(samples(nil), r.recoveries...).sorted()
	out := []metric{
		{"setup_s", setup.percentile(0.5).Seconds(), "s", len(setup)},
		{"throughput_ops", r.win.throughput(), "1/s", r.win.rec.count(opGPut, opGGet)},
	}
	out = append(out,
		latency("gput_p50_us", 0.5, r.win, opGPut), latency("gput_p90_us", 0.9, r.win, opGPut),
		latency("gget_p50_us", 0.5, r.win, opGGet), latency("gget_p90_us", 0.9, r.win, opGGet),
		latency("rights_p50_us", 0.5, r.rights, opGetUser, opExportUser),
	)
	userBytes := float64(len(r.win.rec.lat[opGPut]) * valueSize)
	out = append(out,
		metric{"disk_bytes_per_user_byte", float64(r.win.aofBytes+r.win.auditBytes) / userBytes, "B/B", 0},
		metric{"server_rss_mb", r.rssMB, "MiB", 0},
		metric{"recovery_s", recovery.percentile(0.5).Seconds(), "s", len(recovery)},
	)
	return out
}

// layerResult is what a traced run measured.
type layerResult struct {
	w         *workload
	untraced  *window // first half: untraced, for the tracing overhead and generator lateness
	traced    *window // second half: traced
	rightsWin *window // where the rights requests ran: the traced window or the probe
	spans     []span
	ladder    *ladder
}

func spanMeans(spans []span) map[string]samples {
	out := map[string]samples{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order.
func layerMetrics(r layerResult) []metric {
	sp := spanMeans(r.spans)
	sdk := func(name string) metric {
		s := sp["gdprkv."+name]
		return metric{"gdprkv." + name + "_us", us(s.mean()), "us", len(s)}
	}
	t, rw := r.traced, r.rightsWin
	srv := func(cmd string, w *window) metric {
		mean, calls := cmdMeanUS(w.before, w.after, cmd)
		return metric{"server." + cmd + "_us", mean, "us", int(calls)}
	}
	lad := func(name, span string) metric {
		s := r.ladder.us[span]
		return metric{name, us(s.mean()), "us", len(s)}
	}
	out := []metric{
		sdk("gput"), sdk("gget"), sdk("getuser"), sdk("exportuser"), sdk("forgetuser"),
		{"gdprkv.retries", float64(t.sdkAfter.Retries - t.sdkBefore.Retries), "count", 0},
		{"gdprkv.redials", float64(t.sdkAfter.Redials - t.sdkBefore.Redials), "count", 0},
		srv("gput", t), srv("gget", t), srv("getuser", rw), srv("exportuser", rw), srv("forgetuser", rw),
		{"server.commands", delta(t.before, t.after, "commands"), "count", 0},
	}
	byName := func(name string) float64 {
		for _, m := range out {
			if m.name == name {
				return m.value
			}
		}
		panic("perfbench: no metric " + name)
	}
	out = append(out,
		metric{"wire.gput_us", byName("gdprkv.gput_us") - byName("server.gput_us"), "us", 0},
		metric{"wire.gget_us", byName("gdprkv.gget_us") - byName("server.gget_us"), "us", 0},
		lad("core.put_us", "core.put"), lad("core.get_us", "core.get"),
		lad("core.getuser_us", "core.getuser"), lad("core.export_us", "core.export"),
		lad("core.forget_us", "core.forget"),
	)
	writes := float64(len(t.rec.lat[opGPut]))
	ops := 0
	for _, l := range t.rec.lat {
		ops += len(l)
	}
	auditRecs := delta(t.before, t.after, "audit_seq")
	out = append(out,
		lad("store.setex_us", "store.setex"), lad("store.get_us", "store.get"),
		metric{"aof.appends_per_write", ratio(delta(t.before, t.after, "aof_appends"), writes), "appends/write", 0},
		metric{"aof.bytes_per_write", ratio(float64(t.aofBytes), writes), "B/write", 0},
		metric{"aof.syncs_per_s", delta(t.before, t.after, "aof_syncs") / t.elapsed.Seconds(), "1/s", 0},
		lad("aof.append_us", "aof.append"),
		metric{"audit.records_per_op", ratio(auditRecs, float64(ops)), "records/op", 0},
		metric{"audit.bytes_per_record", ratio(float64(t.auditBytes), auditRecs), "B/record", 0},
		metric{"audit.syncs_per_op", ratio(delta(t.before, t.after, "audit_syncs"), float64(ops)), "syncs/op", 0},
		metric{"audit.queue_depth_max", t.queueMax, "count", t.infoSamples},
		metric{"audit.dropped", delta(t.before, t.after, "audit_dropped"), "count", 0},
		lad("audit.append_us", "audit.append"),
		lad("cryptoutil.seal_us", "cryptoutil.seal"), lad("cryptoutil.open_us", "cryptoutil.open"),
		metric{"erasure.sweep_cycles", delta(t.before, t.after, "erasure_sweep_cycles"), "count", 0},
		metric{"erasure.reclaimed_per_forget", ratio(delta(t.before, t.after, "erasure_reclaimed_total"), float64(t.forgets)), "records/forget", 0},
		metric{"erasure.lag_max_ms", t.eraseLagMax, "ms", t.infoSamples},
		metric{"erasure.cycle_us", us(t.cycleUS.mean()), "us", len(t.cycleUS)},
		metric{"retention.expired_per_s", delta(t.before, t.after, "retention_expired_total") / t.elapsed.Seconds(), "1/s", 0},
		metric{"retention.lag_max_ms", t.retLagMax, "ms", t.infoSamples},
	)
	envelopeSeal := 0.0
	if r.w.envelope {
		envelopeSeal = byName("cryptoutil.seal_us")
	}
	late := r.untraced.rec.late.sorted()
	out = append(out,
		metric{"core.self_put_us", byName("core.put_us") - (byName("store.setex_us") +
			byName("aof.append_us")*byName("aof.appends_per_write") + byName("audit.append_us") + envelopeSeal), "us", 0},
		metric{"core.rights_wait_us", byName("server.getuser_us") - byName("core.getuser_us"), "us", 0},
		metric{"loadgen.late_p99_us", us(late.percentile(0.99)), "us", len(late)},
		metric{"loadgen.trace_overhead", ratio(t.throughput(), r.untraced.throughput()), "ratio", 0},
	)
	return out
}

// header describes the run: hardware, toolchain, code and configuration.
type header struct {
	nproc, gomaxprocs int
	goVersion, commit string
	w                 *workload
	seed              uint64
	seconds           float64
	trace             bool
	churn             int
}

func (h header) lines() []string {
	w := h.w
	envelope := "off"
	if w.envelope {
		envelope = "on (crypto-shred erasure, background sweep)"
	}
	expiry := "lazy-probabilistic"
	if w.timing == "realtime" {
		expiry = "fast-scan"
	}
	rights := fmt.Sprintf("post-window closed-loop probe on %d connection(s) for %v, GETUSER %.0f%% / EXPORTUSER %.0f%% as the controller",
		w.probeConns, w.probeTime, 100*getUserShare, 100*(1-getUserShare))
	if w.rightsRate > 0 {
		rights = fmt.Sprintf("open loop at %.0f/s in the window: GETUSER %.0f%% / EXPORTUSER %.0f%% / FORGETUSER %.0f%%",
			w.rightsRate, 100*getUserShare*(1-w.forgetFrac), 100*(1-getUserShare)*(1-w.forgetFrac), 100*w.forgetFrac)
	}
	data := fmt.Sprintf("%d closed-loop connection(s), 50%% GGET / 50%% GPUT, TTL %v", w.dataConns, w.longTTL)
	if w.shortTTLFrac > 0 {
		data += fmt.Sprintf(" (%.0f%% of writes TTL %v)", 100*w.shortTTLFrac, w.shortTTL)
	}
	return []string{
		fmt.Sprintf("run: workload=%s seed=%d seconds=%g trace=%v", w.name, h.seed, h.seconds, h.trace),
		fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d (load generator; the server runs with Go's default) go=%s commit=%s",
			h.nproc, h.gomaxprocs, h.goVersion, h.commit),
		fmt.Sprintf("dataset: live_subjects=%d records_per_subject=%d churn_subjects=%d churn_records=%d value_bytes=%d keys=%d",
			w.subjects, w.records, h.churn, w.churnRecords, valueSize, w.subjects*w.records+h.churn*w.churnRecords),
		fmt.Sprintf("server: -compliant -capability full -timing %s; flush: aof=%s audit=%s; expiry=%s; envelope=%s",
			w.timing, w.aofSync, w.auditMode(), expiry, envelope),
		"data path: " + data,
		"rights: " + rights,
	}
}

// printMetrics writes one line per metric with its unit and sample count.
func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(out, "metric %-30s %14.4f %-14s%s\n", m.name, m.value, m.unit, n)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(correct bool, attempted, failed int, ms []metric) (string, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range ms {
		if !metricName.MatchString(m.name) {
			return "", fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		r.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// behindLate is the lateness past which an open-loop generator is
// reported as behind its schedule.
const behindLate = 10 * time.Millisecond

// summaryLine reports what the gated metrics leave out: the failure
// share, FORGETUSER latency where the workload erases subjects, and how
// far an open-loop generator ran behind its schedule.
func summaryLine(attempted, failed int, rights recorder) string {
	s := fmt.Sprintf("summary: failed_frac=%g (%d/%d)", ratio(float64(failed), float64(attempted)), failed, attempted)
	if f := rights.lat[opForget].sorted(); len(f) > 0 {
		s += fmt.Sprintf(" forgetuser_p50=%.1fus", us(f.percentile(0.5)))
		if p := tailQuantile(len(f)); p > 0.5 {
			s += fmt.Sprintf(" forgetuser_p%.4g=%.1fus", 100*p, us(f.percentile(p)))
		}
		s += fmt.Sprintf(" (n=%d)", len(f))
	}
	if late := rights.late.sorted(); len(late) > 0 {
		p99 := late.percentile(0.99)
		s += fmt.Sprintf(" open_loop_late_p99=%.1fus (n=%d)", us(p99), len(late))
		if p99 > behindLate {
			s += " BEHIND-SCHEDULE"
		}
	}
	return s
}
