package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/clock"
)

// formatHistory writes a small history through the store, so it is
// journaled in the current format.
func formatHistory(t *testing.T, path string, vc *clock.Virtual) {
	t.Helper()
	s, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put(ctlCtx, "k1", []byte("v1"), PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: time.Hour, Origin: "signup"}))
	must(s.Put(ctlCtx, "k2", []byte("v2"), PutOptions{Owner: "alice", Purposes: []string{"billing", "support"}, SharedWith: []string{"psp"}, AutomatedDecisions: true}))
	vc.Advance(time.Minute)
	must(s.PutBatch(ctlCtx, []BatchEntry{{"b1", []byte("w1")}, {"b2", []byte("w2")}, {"b3", []byte("w3")}},
		PutOptions{Owner: "bob", Purposes: []string{"analytics"}, TTL: 2 * time.Hour}))
	must(s.Close())
}

type formatView struct {
	value    string
	meta     Metadata
	deadline time.Time
}

// viewOf reads every key of the history back through the store's own
// read paths.
func viewOf(t *testing.T, s *Store) map[string]formatView {
	t.Helper()
	out := map[string]formatView{}
	for _, k := range []string{"k1", "k2", "b1", "b2", "b3"} {
		m, err := s.Metadata(ctlCtx, k)
		if err != nil {
			t.Fatalf("Metadata %s: %v", k, err)
		}
		v, err := s.Get(Ctx{Actor: ctlCtx.Actor, Purpose: m.Purposes[0]}, k)
		if err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
		d, _ := s.Engine().Deadline(k)
		out[k] = formatView{value: string(v), meta: m, deadline: d}
	}
	if n := s.Len(); n != len(out) {
		t.Fatalf("store holds %d keys, want %d", n, len(out))
	}
	return out
}

func sameView(t *testing.T, label string, got, want map[string]formatView) {
	t.Helper()
	for k, w := range want {
		g := got[k]
		gj, _ := json.Marshal(g.meta)
		wj, _ := json.Marshal(w.meta)
		if g.value != w.value || string(gj) != string(wj) || !g.deadline.Equal(w.deadline) {
			t.Errorf("%s: key %s\n got %q %s deadline %v\nwant %q %s deadline %v",
				label, k, g.value, gj, g.deadline, w.value, wj, w.deadline)
		}
	}
}

// writeLegacyJournal writes view in the journal format that predates the
// GPUT record: SETEX with an RFC 3339 deadline (or SET) plus GMETA with
// JSON metadata per single write, and MSETEX plus GMETAB per batch.
func writeLegacyJournal(t *testing.T, path string, view map[string]formatView) {
	t.Helper()
	lg, err := aof.Open(path, aof.Options{Policy: aof.SyncNo})
	if err != nil {
		t.Fatal(err)
	}
	rfc := func(d time.Time) []byte { return []byte(d.UTC().Format(time.RFC3339Nano)) }
	js := func(m Metadata) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	app := func(name string, args ...[]byte) {
		t.Helper()
		if err := lg.Append(name, args...); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"k1", "k2"} {
		v := view[k]
		if v.deadline.IsZero() {
			app("SET", []byte(k), []byte(v.value))
		} else {
			app("SETEX", []byte(k), rfc(v.deadline), []byte(v.value))
		}
		app("GMETA", []byte(k), js(v.meta))
	}
	b := view["b1"]
	app("MSETEX", rfc(b.deadline), []byte("b1"), []byte(view["b1"].value),
		[]byte("b2"), []byte(view["b2"].value), []byte("b3"), []byte(view["b3"].value))
	app("GMETAB", js(b.meta), []byte("b1"), []byte("b2"), []byte("b3"))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

func journalNames(t *testing.T, path string) []string {
	t.Helper()
	seen := map[string]bool{}
	if _, err := aof.Load(path, nil, func(name string, _ [][]byte) error {
		seen[name] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestLegacyJournalReplaysLikeCurrent pins compatibility with journals
// written before the GPUT record: the same history in the old two-record
// shape (SETEX/MSETEX with text deadlines, GMETA/GMETAB with JSON
// metadata) replays to the same keys, values, metadata and deadlines as
// the current one-record shape. Replay never re-journals (the legacy
// file's size is unchanged by Open), and a compaction rewrites it into
// current-format records only.
func TestLegacyJournalReplaysLikeCurrent(t *testing.T) {
	dir := t.TempDir()
	start := time.Unix(1_000_000, 0)
	current := filepath.Join(dir, "current.aof")
	formatHistory(t, current, clock.NewVirtual(start))
	if got := journalNames(t, current); len(got) != 2 || got[0] != opPutBatch || got[1] != opPut {
		t.Fatalf("current journal holds %v, want only [GMPUT GPUT]", got)
	}

	vc := clock.NewVirtual(start.Add(time.Minute))
	cur, err := Open(persistentCfg(current, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(cur)
	want := viewOf(t, cur)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := filepath.Join(dir, "legacy.aof")
	writeLegacyJournal(t, legacy, want)
	size := fileSize(t, legacy)
	old, err := Open(persistentCfg(legacy, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(old)
	sameView(t, "legacy replay", viewOf(t, old), want)
	if got := fileSize(t, legacy); got != size {
		t.Fatalf("legacy AOF grew from %d to %d bytes on Open: replay re-journaled", size, got)
	}

	if err := old.Compact(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalNames(t, legacy); len(got) != 1 || got[0] != opPut {
		t.Fatalf("compacted legacy journal holds %v, want only [GPUT]", got)
	}
	again, err := Open(persistentCfg(legacy, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	addPrincipals(again)
	sameView(t, "compacted replay", viewOf(t, again), want)
}

// TestPutFailsOnUnjournaledWrite checks that a write whose GPUT/GMPUT
// record the AOF refuses is not acknowledged: Put, PutBatch and
// RestoreRecord return the journal's error.
func TestPutFailsOnUnjournaledWrite(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1_000_000, 0))
	s, err := Open(persistentCfg(filepath.Join(t.TempDir(), "a.aof"), vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addPrincipals(s)
	opts := PutOptions{Owner: "alice", Purposes: []string{"billing"}}
	if err := s.Put(ctlCtx, "k0", []byte("v"), opts); err != nil {
		t.Fatalf("Put on a healthy AOF: %v", err)
	}
	if err := s.log.Close(); err != nil { // every later append fails
		t.Fatal(err)
	}
	if err := s.Put(ctlCtx, "k1", []byte("v"), opts); err == nil {
		t.Fatal("Put on a closed AOF returned nil")
	}
	if err := s.PutBatch(ctlCtx, []BatchEntry{{"b1", []byte("w")}, {"b2", []byte("w")}}, opts); err == nil {
		t.Fatal("PutBatch on a closed AOF returned nil")
	}
	meta := Metadata{Owner: "alice", Purposes: []string{"billing"}}
	if err := s.RestoreRecord(ctlCtx, MigrationRecord{Key: "r1", Value: []byte("v"), Meta: &meta}); err == nil {
		t.Fatal("RestoreRecord on a closed AOF returned nil")
	}
}

// TestFarDeadlineSurvivesRewrite checks a record whose metadata expiry and
// engine deadline differ but both lie past the int64-nanosecond range
// (year 2262): they encode equal, so the rewritten GPUT must use the
// record-deadline form, or replay rejects it as non-canonical.
func TestFarDeadlineSurvivesRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.aof")
	vc := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	s, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatal(err)
	}
	addPrincipals(s)
	ttl := 250 * 365 * 24 * time.Hour // past 2262
	if err := s.Put(ctlCtx, "k", []byte("v"), PutOptions{Owner: "alice", Purposes: []string{"billing"}, TTL: ttl}); err != nil {
		t.Fatal(err)
	}
	if !s.Engine().ExpireAt("k", vc.Now().Add(ttl+time.Hour)) {
		t.Fatal("ExpireAt found no key")
	}
	if err := s.Compact(ctlCtx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(persistentCfg(path, vc, nil))
	if err != nil {
		t.Fatalf("reopen after rewrite: %v", err)
	}
	defer again.Close()
	addPrincipals(again)
	if v, err := again.Get(Ctx{Actor: ctlCtx.Actor, Purpose: "billing"}, "k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
}
