package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// streamBytes encodes the first n requests of every stream of w for seed.
func streamBytes(w *workload, seed uint64, n int) []byte {
	z := newZipf(w.subjects)
	var b []byte
	for c := 0; c < w.dataConns; c++ {
		g := newDataStream(seed, w, z, c)
		for i := 0; i < n; i++ {
			b = g.next().encode(b)
		}
	}
	g := newRightsStream(newRNG(seed, uint64(w.id), 2), z, w.rightsRate, w.forgetFrac, w.churnSubjects(10))
	for i := 0; i < n; i++ {
		b = g.next().encode(b)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range append(workloads, testWorkload()) {
		a, b := streamBytes(w, 42, 5000), streamBytes(w, 42, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different op streams", w.name)
		}
		if bytes.Equal(a, streamBytes(w, 43, 5000)) {
			t.Errorf("%s: seeds 42 and 43 gave the same op stream", w.name)
		}
	}
	if !bytes.Equal(makeValue(9, "s1:r2", 3), makeValue(9, "s1:r2", 3)) {
		t.Error("makeValue is not deterministic")
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := makeValue(1, "s123:r45", 678)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	k, ver, err := decodeValue(v)
	if err != nil || k != "s123:r45" || ver != 678 {
		t.Fatalf("decodeValue = %q, %d, %v", k, ver, err)
	}
}

// TestTargetReceivesOnlyGeneratedInputs drives a recording fake through
// the benchmark's own preload and request paths and compares every
// request it received with what the generators produce for the seed.
func TestTargetReceivesOnlyGeneratedInputs(t *testing.T) {
	const seed = 11
	f := newFake()
	r, wk := fakeRun(seed, f)
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		wk.exec(ctx, r.data[i%2].next(), time.Time{})
	}
	for i := 0; i < 40; i++ {
		wk.exec(ctx, r.rights.next(), time.Time{})
	}
	wk.settle()

	w := testWorkload()
	var want []string
	preload := func(owner string, records int) {
		for rec := 0; rec < records; rec++ {
			k := recordKey(owner, rec)
			want = append(want, strings.Join([]string{"GMPUT", k, string(makeValue(seed, k, preloadVersion)), owner, w.longTTL.String()}, " "))
		}
	}
	for s := 0; s < w.subjects; s++ {
		preload(liveSubject(s), w.records)
	}
	for s := 0; s < r.churnN; s++ {
		preload(churnSubject(s), w.churnRecords)
	}
	z := newZipf(w.subjects)
	data := []*dataStream{newDataStream(seed, w, z, 0), newDataStream(seed, w, z, 1)}
	for i := 0; i < 500; i++ {
		o := data[i%2].next()
		k := recordKey(liveSubject(o.subject), o.record)
		if o.kind == opGPut {
			want = append(want, strings.Join([]string{"GPUT", k, string(makeValue(seed, k, o.version)), liveSubject(o.subject), o.ttl.String()}, " "))
		} else {
			want = append(want, "GGET "+k)
		}
	}
	g := newRightsStream(newRNG(seed, uint64(w.id), 2), z, 0, w.forgetFrac, r.churnN)
	for i := 0; i < 40; i++ {
		o := g.next()
		switch o.kind {
		case opGetUser:
			want = append(want, "GETUSER "+liveSubject(o.subject))
		case opExportUser:
			want = append(want, "EXPORTUSER "+liveSubject(o.subject))
		case opForget:
			want = append(want, "FORGETUSER "+churnSubject(o.subject))
		}
	}
	if len(f.log) != len(want) {
		t.Fatalf("target received %d requests, the generators produced %d", len(f.log), len(want))
	}
	for i := range want {
		if f.log[i] != want[i] {
			t.Fatalf("request %d: target received %.80q, generated %.80q", i, f.log[i], want[i])
		}
	}
	if r.m.failed.Load() != 0 {
		t.Fatalf("oracle failures: %v", r.m.errors())
	}
}

func TestOwnedWriteRanges(t *testing.T) {
	w := testWorkload()
	z := newZipf(w.subjects)
	for c := 0; c < w.dataConns; c++ {
		g := newDataStream(1, w, z, c)
		for i := 0; i < 2000; i++ {
			o := g.next()
			if o.kind == opGPut && o.record%w.dataConns != c {
				t.Fatalf("connection %d wrote record %d, owned by connection %d", c, o.record, o.record%w.dataConns)
			}
		}
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	w := testWorkload()
	g := newRightsStream(newRNG(1, uint64(w.id), 2), newZipf(w.subjects), 250, w.forgetFrac, 1000)
	for i := 1; i <= 100; i++ {
		if o := g.next(); o.due != time.Duration(i)*4*time.Millisecond {
			t.Fatalf("request %d due at %v, want %v", i, o.due, time.Duration(i)*4*time.Millisecond)
		}
	}
	seen := map[int]bool{}
	g = newRightsStream(newRNG(1, uint64(w.id), 2), newZipf(w.subjects), 0, 0.5, 30)
	for i := 0; i < 500; i++ {
		if o := g.next(); o.kind == opForget {
			if seen[o.subject] {
				t.Fatalf("churn subject %d forgotten twice", o.subject)
			}
			seen[o.subject] = true
		}
	}
	if len(seen) != 30 {
		t.Fatalf("%d churn subjects forgotten, want all 30", len(seen))
	}
}
