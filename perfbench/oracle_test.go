package main

import (
	"context"
	"testing"
	"time"
)

func TestOracleAcceptsCorrectReplies(t *testing.T) {
	f := newFake()
	r, wk := fakeRun(7, f)
	ctx := context.Background()
	for i := 0; i < 3000; i++ {
		wk.exec(ctx, r.data[i%2].next(), time.Time{})
	}
	for i := 0; i < 60; i++ {
		wk.exec(ctx, r.rights.next(), time.Time{})
	}
	wk.settle()
	if len(wk.forgets) == 0 {
		t.Fatal("the rights stream forgot no subject")
	}
	for _, s := range wk.forgets {
		owner := churnSubject(s)
		refs := r.m.subjectRefs(true, s)
		got, _ := f.GetUser(ctx, owner)
		if bad := r.m.checkSubject(owner, refs, r.m.snapshots(refs), r.m.issuedAll(refs), 0, 0, got); bad != "" {
			t.Errorf("forgotten subject: %s", bad)
		}
	}
	if n := r.m.failed.Load(); n != 0 {
		t.Fatalf("%d failures on a correct target: %v", n, r.m.errors())
	}
}

// TestOracleRejectsWrongReplies corrupts one reply at a time and expects
// the oracle to count it.
func TestOracleRejectsWrongReplies(t *testing.T) {
	const seed = 3
	key0 := recordKey(liveSubject(0), 0)
	cases := []struct {
		name    string
		corrupt func(kind, key string, v []byte) ([]byte, bool)
		send    op
	}{
		{"flipped byte", func(kind, key string, v []byte) ([]byte, bool) {
			if v != nil {
				v[100] ^= 1
			}
			return v, v != nil
		}, op{kind: opGGet}},
		{"missing record", func(string, string, []byte) ([]byte, bool) { return nil, false }, op{kind: opGGet}},
		{"value of another key", func(kind, key string, v []byte) ([]byte, bool) {
			return makeValue(seed, recordKey(liveSubject(1), 0), preloadVersion), true
		}, op{kind: opGGet}},
		{"version never written", func(kind, key string, v []byte) ([]byte, bool) {
			return makeValue(seed, key0, 99), true
		}, op{kind: opGGet}},
		{"truncated value", func(kind, key string, v []byte) ([]byte, bool) {
			return v[:valueSize-1], true
		}, op{kind: opGGet}},
		{"GETUSER missing a record", func(kind, key string, v []byte) ([]byte, bool) {
			return v, kind != "GETUSER" || key != key0
		}, op{kind: opGetUser}},
		{"GETUSER corrupt record", func(kind, key string, v []byte) ([]byte, bool) {
			if kind == "GETUSER" && v != nil {
				v[50] ^= 1
			}
			return v, v != nil
		}, op{kind: opGetUser}},
		{"GETUSER holds another subject's record", func(kind, key string, v []byte) ([]byte, bool) {
			if kind == "GETUSER-EXTRA" {
				return makeValue(seed, recordKey(liveSubject(1), 0), preloadVersion), true
			}
			return v, v != nil
		}, op{kind: opGetUser}},
		{"EXPORTUSER corrupt record", func(kind, key string, v []byte) ([]byte, bool) {
			if kind == "GETUSER" && v != nil {
				v[9] ^= 1
			}
			return v, v != nil
		}, op{kind: opExportUser}},
		{"FORGETUSER count", func(kind, key string, v []byte) ([]byte, bool) {
			return nil, kind == "FORGETUSER"
		}, op{kind: opForget}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFake()
			r, wk := fakeRun(seed, f)
			f.corrupt = c.corrupt
			wk.exec(context.Background(), c.send, time.Time{})
			wk.settle()
			if r.m.failed.Load() == 0 {
				t.Fatalf("oracle accepted a wrong reply (%s)", c.name)
			}
		})
	}
}

func TestOracleRejectsStaleVersion(t *testing.T) {
	f := newFake()
	r, wk := fakeRun(5, f)
	ctx := context.Background()
	wk.exec(ctx, op{kind: opGPut, subject: 2, record: 1, version: 2, ttl: time.Hour}, time.Time{})
	f.corrupt = func(kind, key string, v []byte) ([]byte, bool) {
		return makeValue(5, key, preloadVersion), true
	}
	wk.exec(ctx, op{kind: opGGet, subject: 2, record: 1}, time.Time{})
	if r.m.failed.Load() != 1 {
		t.Fatalf("failures = %d, want 1 for a read older than an acknowledged write: %v", r.m.failed.Load(), r.m.errors())
	}
}

func TestOracleDeadlines(t *testing.T) {
	w := testWorkload()
	m := newModel(1, w, 1)
	ref := m.liveRef(0, 0)
	key := m.key(ref)
	now := time.Now().UnixNano()
	ttl := 2 * time.Second
	sent := now - int64(5*time.Second)
	m.sent(ref, 1)
	m.acked(ref, 1, ttl, sent, sent+int64(time.Millisecond))
	snap := m.snapshot(ref)
	v := makeValue(1, key, 1)
	if bad := m.checkRead(ref, snap, 1, now, now, v, true); bad == "" {
		t.Error("a record served after its deadline was accepted")
	}
	if bad := m.checkRead(ref, snap, 1, now, now, nil, false); bad != "" {
		t.Errorf("a miss after the deadline was rejected: %s", bad)
	}
	early := sent + int64(time.Second)
	if bad := m.checkRead(ref, snap, 1, early, early, nil, false); bad == "" {
		t.Error("a miss before the deadline was accepted")
	}
	if bad := m.checkRead(ref, snap, 1, early, early, v, true); bad != "" {
		t.Errorf("a live record was rejected: %s", bad)
	}
	m.forget(0)
	cref := m.churnRef(0, 0)
	m.sent(cref, 1)
	m.acked(cref, 1, time.Hour, now, now)
	m.forget(0)
	if bad := m.checkRead(cref, m.snapshot(cref), 1, now, now, makeValue(1, m.key(cref), 1), true); bad == "" {
		t.Error("a forgotten record read back was accepted")
	}
}
