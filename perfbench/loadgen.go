package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. SDK spans are the roots of
// their request (ID == Req); ladder spans carry the Req and span ID of the
// SDK call they replay.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracedOp is a request sent during a traced phase, kept so the ladder
// can replay the same stream.
type tracedOp struct {
	op   op
	span uint64
}

// tracer hands out span ids and keeps every span in memory until exit.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	ops   []tracedOp
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(spans []span, ops []tracedOp) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.ops = append(t.ops, ops...)
	t.mu.Unlock()
}

// worker drives one connection. Its recorder, spans and counts are its
// own until the phase ends and they are merged.
type worker struct {
	r       *runner
	t       target
	trace   *tracer // nil when the phase is not traced
	rec     recorder
	spans   []span
	ops     []tracedOp
	sent    int
	forgets []int // churn subjects this worker forgot

	pending []pendingCheck
}

// pendingCheck is a rights reply whose check waits until the phase ends,
// so that decoding and checking large replies does not compete for the
// CPU with the requests being timed.
type pendingCheck struct {
	kind            opKind
	owner           string
	refs            []ref
	snaps           []keyState
	his             []int64
	sendNs, replyNs int64
	got             map[string][]byte
	payload         []byte // EXPORTUSER: the raw portability payload
}

// settle checks every deferred reply.
func (wk *worker) settle() {
	m := wk.r.m
	for _, pc := range wk.pending {
		got := pc.got
		if pc.kind == opExportUser {
			var err error
			if got, err = parseExport(pc.owner, pc.payload); err != nil {
				m.fail("EXPORTUSER %s: %v", pc.owner, err)
				continue
			}
		}
		if bad := m.checkSubject(pc.owner, pc.refs, pc.snaps, pc.his, pc.sendNs, pc.replyNs, got); bad != "" {
			m.fail("%s %s", pc.kind, bad)
		}
	}
	wk.pending = nil
}

// exec sends o, checks the reply against the model and records its
// latency: from due when the request had a schedule, else from its send.
func (wk *worker) exec(ctx context.Context, o op, due time.Time) {
	m := wk.r.m
	wk.sent++
	var (
		start, end time.Time
		msg        string
	)
	switch o.kind {
	case opGPut:
		ref := m.liveRef(o.subject, o.record)
		key := m.key(ref)
		val := makeValue(m.seed, key, o.version)
		m.sent(ref, o.version)
		start = time.Now()
		err := wk.t.GPut(ctx, key, val, liveSubject(o.subject), o.ttl)
		end = time.Now()
		if err != nil {
			msg = fmt.Sprintf("GPUT %s: %v", key, err)
		} else {
			m.acked(ref, o.version, o.ttl, start.UnixNano(), end.UnixNano())
		}
	case opGGet:
		ref := m.liveRef(o.subject, o.record)
		key := m.key(ref)
		snap := m.snapshot(ref)
		start = time.Now()
		val, found, err := wk.t.GGet(ctx, key)
		end = time.Now()
		if err != nil {
			msg = fmt.Sprintf("GGET %s: %v", key, err)
		} else if bad := m.checkRead(ref, snap, m.issued(ref), start.UnixNano(), end.UnixNano(), val, found); bad != "" {
			msg = "GGET " + bad
		}
	case opGetUser, opExportUser:
		pc := pendingCheck{kind: o.kind, owner: liveSubject(o.subject), refs: m.subjectRefs(false, o.subject)}
		pc.snaps = m.snapshots(pc.refs)
		var err error
		start = time.Now()
		if o.kind == opGetUser {
			pc.got, err = wk.t.GetUser(ctx, pc.owner)
		} else {
			pc.payload, err = wk.t.ExportUser(ctx, pc.owner)
		}
		end = time.Now()
		if err != nil {
			msg = fmt.Sprintf("%s %s: %v", o.kind, pc.owner, err)
			break
		}
		pc.his = m.issuedAll(pc.refs)
		pc.sendNs, pc.replyNs = start.UnixNano(), end.UnixNano()
		wk.pending = append(wk.pending, pc)
	case opForget:
		owner := churnSubject(o.subject)
		start = time.Now()
		n, err := wk.t.ForgetUser(ctx, owner)
		end = time.Now()
		switch {
		case err != nil:
			msg = fmt.Sprintf("FORGETUSER %s: %v", owner, err)
		case n != int64(m.w.churnRecords):
			msg = fmt.Sprintf("FORGETUSER %s erased %d records, the model holds %d", owner, n, m.w.churnRecords)
		default:
			m.forget(o.subject)
			wk.forgets = append(wk.forgets, o.subject)
		}
	}
	if msg != "" {
		m.fail("%s", msg)
	}
	from := start
	if !due.IsZero() {
		from = due
	}
	wk.rec.add(o.kind, end.Sub(from), start.Sub(due), !due.IsZero())
	if wk.trace != nil {
		id := wk.trace.ids.Add(1)
		wk.spans = append(wk.spans, span{Req: id, ID: id, Name: "gdprkv." + o.kind.String(),
			Start: wk.trace.ns(start), End: wk.trace.ns(end)})
		wk.ops = append(wk.ops, tracedOp{op: o, span: id})
	}
}

// closedLoop sends the next request as soon as the previous one returns,
// until the deadline.
func (wk *worker) closedLoop(ctx context.Context, next func() op, until time.Time) {
	for time.Now().Before(until) {
		wk.exec(ctx, next(), time.Time{})
	}
}

// closedCount sends n requests back to back.
func (wk *worker) closedCount(ctx context.Context, next func() op, n int) {
	for i := 0; i < n; i++ {
		wk.exec(ctx, next(), time.Time{})
	}
}

// openLoop sends g's requests at their scheduled times until the
// deadline, whether or not earlier replies have arrived. A request due
// before the deadline is always sent, however late; its lateness is
// recorded and its latency counts from its due time.
func (wk *worker) openLoop(ctx context.Context, g *rightsStream, until time.Time) {
	origin := time.Now().Add(-g.at)
	for {
		o := g.next()
		due := origin.Add(o.due)
		if !due.Before(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wk.exec(ctx, o, due)
	}
}

// growth accounts the bytes appended to a file that the server may
// compact (rewrite to a smaller file) while it is being measured: every
// shrink seen is counted as a rewrite whose output size was written. Every
// size it compares is the file's size on disk, which only a rewrite makes
// smaller; bytes the server still buffers are not counted at either end.
type growth struct {
	path     string
	last     int64
	appended int64
	rewrites int
	stop     chan struct{}
	done     chan struct{}
}

// watchGrowth starts polling path from its size on disk now.
func watchGrowth(path string) *growth {
	g := &growth{path: path, last: fileSize(path), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if st, err := os.Stat(g.path); err == nil {
					g.observe(st.Size())
				}
			}
		}
	}()
	return g
}

func (g *growth) observe(size int64) {
	if size < g.last {
		g.rewrites++
		g.appended += size
	} else {
		g.appended += size - g.last
	}
	g.last = size
}

// finish stops polling and folds in the final size on disk.
func (g *growth) finish() (appended int64, rewrites int) {
	close(g.stop)
	<-g.done
	g.observe(fileSize(g.path))
	return g.appended, g.rewrites
}
