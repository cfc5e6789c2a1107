// Command perfbench is the repository's end-to-end benchmark. It starts
// the gdprkv-server built from this tree as its own process, drives it
// through the public SDK (pkg/gdprkv) with one of three GDPR traffic
// mixes, checks every reply against a model of what was written, and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones,
// ending with one JSON line. See README.md for the workloads and the
// layer map; run it with perfbench/run.sh from the repository root.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupsPerRun is how many times an untraced run sets up from scratch;
// setup_s is their median. recoveriesPerRun is how many times it stops and
// restarts the server after the window; recovery_s is their median.
const (
	setupsPerRun     = 3
	recoveriesPerRun = 3
	recoverySettle   = 200 * time.Millisecond
)

func main() {
	var (
		name    = flag.String("workload", "", "app-eventual, strict-realtime or rights-churn")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		bin     = flag.String("server", ".bench_build/bin/gdprkv-server", "gdprkv-server binary")
		work    = flag.String("workdir", ".bench_build", "directory for data files and traces")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload=%q seconds=%g trace=%d: %v\n", *name, *seconds, *trace, err)
		os.Exit(2)
	}

	// Stop the server on an interrupt, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(3)
	}()

	code := run(w, *seed, *seconds, *trace == 1, *bin, *work)
	killAll()
	os.Exit(code)
}

func run(w *workload, seed uint64, seconds float64, traced bool, bin, work string) int {
	ctx := context.Background()
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	r := &runner{
		w: w, seed: seed, seconds: seconds, bin: bin,
		dir:    filepath.Join(work, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		z:      newZipf(w.subjects),
		churnN: w.churnSubjects(seconds),
	}
	defer os.RemoveAll(r.dir)
	defer killAll() // before the data directory goes
	h := header{
		nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version(),
		commit: treeID("."), w: w, seed: seed, seconds: seconds, trace: traced, churn: r.churnN,
	}
	for _, l := range h.lines() {
		fmt.Fprintln(out, l)
	}
	out.Flush()

	var (
		ms     []metric
		rights recorder
		err    error
	)
	if traced {
		ms, rights, err = r.tracedRun(ctx, work)
	} else {
		ms, rights, err = r.untracedRun(ctx)
	}
	if r.m == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	failed := int(r.m.failed.Load())
	fmt.Fprintln(out, summaryLine(r.attempted, failed, rights))
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	if failed > 0 {
		for _, e := range r.m.errors() {
			fmt.Fprintln(out, "oracle: "+e)
		}
	}
	if err != nil && failed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	printMetrics(out, ms)
	line, lerr := resultLine(failed == 0, max(r.attempted, 1), failed, ms)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", lerr)
		return 2
	}
	fmt.Fprintln(out, line)
	if failed > 0 {
		return 1
	}
	return 0
}

// untracedRun sets up several times, runs the timed window, then probes
// rights where the window had none, checks erasures, measures recovery
// and reads every key back.
func (r *runner) untracedRun(ctx context.Context) ([]metric, recorder, error) {
	var res e2eResult
	for i := 0; i < setupsPerRun; i++ {
		d, err := r.setup(ctx)
		if err != nil {
			return nil, recorder{}, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, d)
		if i < setupsPerRun-1 {
			r.closeClients()
			r.srv.kill()
		}
	}
	win, err := r.runWindow(ctx, secondsDur(r.seconds), nil)
	if err != nil {
		return nil, recorder{}, err
	}
	res.win = win
	res.rights = win
	if r.w.rightsRate == 0 {
		p, err := r.probe(ctx, nil, 0)
		if err != nil {
			return nil, recorder{}, fmt.Errorf("rights probe: %w", err)
		}
		res.rights = p
	}
	if err := r.checkForgotten(ctx); err != nil {
		return nil, recorder{}, err
	}
	if res.rssMB, err = r.srv.peakRSSMB(); err != nil {
		return nil, recorder{}, err
	}
	for i := 0; i < recoveriesPerRun; i++ {
		if i > 0 {
			// The server answers PING as soon as it listens but installs
			// its SIGTERM handler only after that; a SIGTERM in between
			// kills it uncleanly.
			time.Sleep(recoverySettle)
		}
		d, err := r.recover(ctx)
		if err != nil {
			return nil, recorder{}, fmt.Errorf("recovery: %w", err)
		}
		res.recoveries = append(res.recoveries, d)
	}
	if err := r.verifyAll(ctx); err != nil {
		return nil, recorder{}, err
	}
	if err := r.srv.stop(); err != nil {
		return nil, recorder{}, err
	}
	r.notes = append(r.notes, tailNote(res),
		fmt.Sprintf("window: aof_rewrites=%d (a compaction's output counts as bytes written)", win.aofRewrites))
	return e2eMetrics(res), res.rights.rec, nil
}

// tracedRun sets up once, runs half the window untraced and half traced,
// replays the traced stream through the layer ladder and writes the spans.
func (r *runner) tracedRun(ctx context.Context, work string) ([]metric, recorder, error) {
	if _, err := r.setup(ctx); err != nil {
		return nil, recorder{}, fmt.Errorf("setup: %w", err)
	}
	half := secondsDur(r.seconds / 2)
	untraced, err := r.runWindow(ctx, half, nil)
	if err != nil {
		return nil, recorder{}, err
	}
	tr := &tracer{epoch: time.Now()}
	traced, err := r.runWindow(ctx, half, tr)
	if err != nil {
		return nil, recorder{}, err
	}
	rightsWin := traced
	if r.w.rightsRate == 0 {
		if rightsWin, err = r.probe(ctx, tr, r.w.probeForgets); err != nil {
			return nil, recorder{}, fmt.Errorf("rights probe: %w", err)
		}
	}
	if err := r.checkForgotten(ctx); err != nil {
		return nil, recorder{}, err
	}
	r.closeClients()
	if err := r.srv.stop(); err != nil {
		return nil, recorder{}, err
	}
	l := newLadder(r.w, r.seed, r.dir, tr)
	if err := l.run(); err != nil {
		return nil, recorder{}, err
	}
	if err := writeSpans(filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed)), tr.spans); err != nil {
		return nil, recorder{}, err
	}
	ms := layerMetrics(layerResult{w: r.w, untraced: untraced, traced: traced, rightsWin: rightsWin,
		spans: tr.spans, ladder: l})
	return ms, rightsWin.rec, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// treeID names the code under test: the git commit when the tree is a
// git checkout, else a digest of the Go sources and module files.
func treeID(root string) string {
	git := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	if abs, err := filepath.Abs(root); err == nil {
		// Look for a repository at root only, never in the directories above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	}
	if b, err := git.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
