package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gdprstore/pkg/gdprkv"
)

// Fixed amounts of work outside the timed window.
const (
	warmupOps       = 2000 // closed-loop data requests per connection
	warmupRights    = 40   // rights requests on the rights connection
	verifyBatch     = 500  // keys per GMGET in the durability check
	infoSampleEvery = 100 * time.Millisecond
)

// runner holds one benchmark run: the server, its connections, the
// generators and the oracle.
type runner struct {
	w       *workload
	seed    uint64
	seconds float64
	bin     string
	dir     string

	z      *zipf
	m      *model
	data   []*dataStream
	rights *rightsStream
	churnN int

	srv     *serverProc
	dataCl  []*gdprkv.Client
	rightCl *gdprkv.Client

	attempted int
	forgotten []int
	notes     []string // extra report lines
}

func (r *runner) aofPath() string   { return filepath.Join(r.dir, "appendonly.aof") }
func (r *runner) auditPath() string { return filepath.Join(r.dir, "audit.log") }

// infoClient is the connection INFO snapshots are read on.
func (r *runner) infoClient() *gdprkv.Client {
	if r.rightCl != nil {
		return r.rightCl
	}
	return r.dataCl[0]
}

func (r *runner) closeClients() {
	for _, c := range r.clients() {
		c.Close()
	}
	r.dataCl, r.rightCl = nil, nil
}

// setup starts a fresh server, preloads the data set and warms up,
// returning the time from launch to the end of the warm-up.
func (r *runner) setup(ctx context.Context) (time.Duration, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return 0, err
	}
	r.m = newModel(r.seed, r.w, r.churnN)
	r.data = make([]*dataStream, r.w.dataConns)
	for i := range r.data {
		r.data[i] = newDataStream(r.seed, r.w, r.z, i)
	}
	r.rights = newRightsStream(newRNG(r.seed, uint64(r.w.id), 2), r.z, r.w.rightsRate, r.w.forgetFrac, r.churnN)
	r.forgotten = nil

	start := time.Now()
	srv, err := startServer(r.bin, r.w.serverArgs(r.aofPath(), r.auditPath()), filepath.Join(r.dir, "server.log"))
	if err != nil {
		return 0, err
	}
	r.srv = srv
	if err := registerPrincipals(ctx, srv.addr); err != nil {
		return 0, err
	}
	for i := 0; i < r.w.dataConns; i++ {
		c, err := dialProcessor(ctx, srv.addr)
		if err != nil {
			return 0, err
		}
		r.dataCl = append(r.dataCl, c)
	}
	if r.w.rightsRate > 0 {
		if r.rightCl, err = dialController(ctx, srv.addr); err != nil {
			return 0, err
		}
	}

	// Preload: one GMPUT per subject, spread over every open connection.
	all := r.clients()
	wks := make([]*worker, len(all))
	for i, c := range all {
		wks[i] = &worker{r: r, t: sdkTarget{c}}
	}
	r.parallel(wks, func(i int, wk *worker) {
		for s := i; s < r.w.subjects; s += len(wks) {
			wk.preloadSubject(ctx, false, s)
		}
		for s := i; s < r.churnN; s += len(wks) {
			wk.preloadSubject(ctx, true, s)
		}
	})
	if err := r.failure(); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}

	// Warm-up: a fixed number of requests from each connection's stream.
	dw := r.dataWorkers(nil)
	var rw *worker
	if r.rightCl != nil {
		rw = &worker{r: r, t: sdkTarget{r.rightCl}}
		dw = append(dw, rw)
	}
	r.parallel(dw, func(i int, wk *worker) {
		if wk == rw {
			wk.closedCount(ctx, r.rights.next, warmupRights)
			return
		}
		wk.closedCount(ctx, r.data[i].next, warmupOps)
	})
	return time.Since(start), r.failure()
}

// preloadSubject writes version 1 of every record of one subject in a
// single GMPUT.
func (wk *worker) preloadSubject(ctx context.Context, churn bool, s int) {
	m := wk.r.m
	owner := liveSubject(s)
	if churn {
		owner = churnSubject(s)
	}
	refs := m.subjectRefs(churn, s)
	keys := make([]string, len(refs))
	vals := make([][]byte, len(refs))
	for i, ref := range refs {
		keys[i] = m.key(ref)
		vals[i] = makeValue(m.seed, keys[i], preloadVersion)
		m.sent(ref, preloadVersion)
	}
	ttl := wk.r.w.longTTL
	wk.sent++
	start := time.Now()
	if err := wk.t.GMPut(ctx, keys, vals, owner, ttl); err != nil {
		m.fail("GMPUT %s: %v", owner, err)
		return
	}
	end := time.Now()
	for _, ref := range refs {
		m.acked(ref, preloadVersion, ttl, start.UnixNano(), end.UnixNano())
	}
}

// dataWorkers makes one worker per data connection.
func (r *runner) dataWorkers(tr *tracer) []*worker {
	wks := make([]*worker, len(r.dataCl))
	for i, c := range r.dataCl {
		wks[i] = &worker{r: r, t: sdkTarget{c}, trace: tr}
	}
	return wks
}

// parallel runs fn for every worker at once, waits, and collects the
// requests they sent and the subjects they forgot.
func (r *runner) parallel(wks []*worker, fn func(i int, wk *worker)) {
	var wg sync.WaitGroup
	for i, wk := range wks {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			fn(i, wk)
		}(i, wk)
	}
	wg.Wait()
	for _, wk := range wks {
		wk.settle()
		r.attempted += wk.sent
		wk.sent = 0
		r.forgotten = append(r.forgotten, wk.forgets...)
	}
}

// failure reports the oracle's first failure, if any.
func (r *runner) failure() error {
	if n := r.m.failed.Load(); n > 0 {
		return fmt.Errorf("%d wrong or failed replies, first: %s", n, r.m.errors()[0])
	}
	return nil
}

// window is what one timed phase measured.
type window struct {
	rec         recorder
	elapsed     time.Duration
	before      info
	after       info
	aofBytes    int64
	aofRewrites int
	auditBytes  int64
	forgets     int
	sdkBefore   gdprkv.Stats
	sdkAfter    gdprkv.Stats
	queueMax    float64
	retLagMax   float64
	eraseLagMax float64
	cycleUS     samples
	infoSamples int
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// clients lists every open connection: the data ones, then the rights one.
func (r *runner) clients() []*gdprkv.Client {
	cs := append([]*gdprkv.Client(nil), r.dataCl...)
	if r.rightCl != nil {
		cs = append(cs, r.rightCl)
	}
	return cs
}

// sdkStats adds up the client counters of every open connection.
func (r *runner) sdkStats() gdprkv.Stats {
	var s gdprkv.Stats
	for _, c := range r.clients() {
		st := c.Stats()
		s.Retries += st.Retries
		s.Redials += st.Redials
	}
	return s
}

// runWindow runs the workload's traffic for d: every data connection in a
// closed loop and, when the workload has one, the rights open loop. A
// traced window records spans and samples INFO.
func (r *runner) runWindow(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = readInfo(ctx, r.infoClient()); err != nil {
		return nil, err
	}
	w.sdkBefore = r.sdkStats()
	auditStart := fileSize(r.auditPath())
	aof := watchGrowth(r.aofPath())

	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	if tr != nil {
		go r.sampleInfo(ctx, w, stopSampling, sampled)
	} else {
		close(sampled)
	}

	wks := r.dataWorkers(tr)
	var rw *worker
	if r.rightCl != nil {
		rw = &worker{r: r, t: sdkTarget{r.rightCl}, trace: tr}
		wks = append(wks, rw)
	}
	start := time.Now()
	until := start.Add(d)
	r.parallel(wks, func(i int, wk *worker) {
		if wk == rw {
			wk.openLoop(ctx, r.rights, until)
			return
		}
		wk.closedLoop(ctx, r.data[i].next, until)
	})
	w.elapsed = time.Since(start)
	close(stopSampling)
	<-sampled

	if w.after, err = readInfo(ctx, r.infoClient()); err != nil {
		return nil, err
	}
	w.sdkAfter = r.sdkStats()
	w.aofBytes, w.aofRewrites = aof.finish()
	w.auditBytes = fileSize(r.auditPath()) - auditStart
	for _, wk := range wks {
		w.rec.merge(&wk.rec)
		w.forgets += len(wk.forgets)
		if tr != nil {
			tr.add(wk.spans, wk.ops)
		}
	}
	return w, nil
}

// sampleInfo polls INFO during a traced window for the gauges a diff
// cannot give: audit queue depth, retention lag and sweep lag and cost.
func (r *runner) sampleInfo(ctx context.Context, w *window, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(infoSampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		// Sample on a closed-loop data connection, which just waits its
		// turn, rather than delay the rights open loop's schedule.
		in, err := readInfo(ctx, r.dataCl[0])
		if err != nil {
			continue
		}
		w.infoSamples++
		w.queueMax = max(w.queueMax, in.num("audit_queue_depth"))
		w.retLagMax = max(w.retLagMax, in.num("retention_lag_ms"))
		w.eraseLagMax = max(w.eraseLagMax, in.num("erasure_sweep_lag_ms"))
		if _, ok := in.fields["erasure_last_cycle_us"]; ok {
			w.cycleUS = append(w.cycleUS, time.Duration(in.num("erasure_last_cycle_us"))*time.Microsecond)
		}
	}
}

// probe runs the post-window rights probe of a workload without rights
// traffic in its window: GETUSER/EXPORTUSER requests as the controller,
// back to back on probeConns connections for probeTime, and then, when
// forgets > 0, that many FORGETUSERs.
// It returns the probe's latencies and the INFO snapshots around it.
func (r *runner) probe(ctx context.Context, tr *tracer, forgets int) (*window, error) {
	// Stay within two connections: controllers replace the data ones.
	r.closeClients()
	wks := make([]*worker, r.w.probeConns)
	for i := range wks {
		c, err := dialController(ctx, r.srv.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		wks[i] = &worker{r: r, t: sdkTarget{c}, trace: tr}
	}
	info := wks[0].t.(sdkTarget).c
	w := &window{}
	var err error
	if w.before, err = readInfo(ctx, info); err != nil {
		return nil, err
	}
	start := time.Now()
	r.parallel(wks, func(i int, wk *worker) {
		g := newRightsStream(newRNG(r.seed, uint64(r.w.id), 3, uint64(i)), r.z, 0, 0, 0)
		wk.closedLoop(ctx, g.next, start.Add(r.w.probeTime))
		if i == 0 {
			for s := 0; s < forgets && s < r.churnN; s++ {
				wk.exec(ctx, op{kind: opForget, subject: s}, time.Time{})
			}
		}
	})
	w.elapsed = time.Since(start)
	if w.after, err = readInfo(ctx, info); err != nil {
		return nil, err
	}
	for _, wk := range wks {
		w.rec.merge(&wk.rec)
		w.forgets += len(wk.forgets)
		if tr != nil {
			tr.add(wk.spans, wk.ops)
		}
	}
	return w, r.failure()
}

// checkForgotten reads every forgotten subject back as the controller:
// each must come back empty.
func (r *runner) checkForgotten(ctx context.Context) error {
	if len(r.forgotten) == 0 {
		return nil
	}
	c := r.rightCl
	if c == nil {
		var err error
		if c, err = dialController(ctx, r.srv.addr); err != nil {
			return err
		}
		defer c.Close()
	}
	t := sdkTarget{c}
	for _, s := range r.forgotten {
		owner := churnSubject(s)
		refs := r.m.subjectRefs(true, s)
		snaps := r.m.snapshots(refs)
		r.attempted++
		send := time.Now().UnixNano()
		got, err := t.GetUser(ctx, owner)
		if err != nil {
			r.m.fail("GETUSER %s after FORGETUSER: %v", owner, err)
			continue
		}
		if bad := r.m.checkSubject(owner, refs, snaps, r.m.issuedAll(refs), send, time.Now().UnixNano(), got); bad != "" {
			r.m.fail("GETUSER after FORGETUSER: %s", bad)
		}
	}
	return r.failure()
}

// recover stops the server with SIGTERM, restarts it on the same files
// and returns the time until the first PING succeeds.
func (r *runner) recover(ctx context.Context) (time.Duration, error) {
	r.closeClients()
	start := time.Now()
	if err := r.srv.stop(); err != nil {
		return 0, err
	}
	srv, err := startServer(r.bin, r.w.serverArgs(r.aofPath(), r.auditPath()), filepath.Join(r.dir, "server.log"))
	if err != nil {
		return 0, err
	}
	r.srv = srv
	c, err := gdprkv.Dial(ctx, srv.addr, gdprkv.WithPoolSize(1))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for {
		if err := c.Ping(ctx); err == nil {
			break
		} else if time.Since(start) > 120*time.Second {
			return 0, fmt.Errorf("restarted server answered no PING: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start), nil
}

// verifyAll reads every key of the data set back with GMGET: every
// acknowledged write must be there intact unless it has expired, and
// nothing forgotten may come back.
func (r *runner) verifyAll(ctx context.Context) error {
	if err := registerPrincipals(ctx, r.srv.addr); err != nil {
		return err
	}
	c, err := dialProcessor(ctx, r.srv.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	t := sdkTarget{c}
	refs := r.m.allRefs()
	for i := 0; i < len(refs); i += verifyBatch {
		batch := refs[i:min(i+verifyBatch, len(refs))]
		keys := make([]string, len(batch))
		for j, ref := range batch {
			keys[j] = r.m.key(ref)
		}
		snaps := r.m.snapshots(batch)
		r.attempted++
		send := time.Now().UnixNano()
		vals, found, err := t.GMGet(ctx, keys)
		reply := time.Now().UnixNano()
		if err != nil {
			r.m.fail("GMGET after restart: %v", err)
			continue
		}
		his := r.m.issuedAll(batch)
		for j, ref := range batch {
			if bad := r.m.checkRead(ref, snaps[j], his[j], send, reply, vals[j], found[j]); bad != "" {
				r.m.fail("after restart: %s", bad)
			}
		}
	}
	return r.failure()
}
