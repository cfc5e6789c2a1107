package main

import (
	"context"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"
)

// fakeTarget is an in-memory store with the server's semantics for the
// requests the benchmark sends: TTL expiry, per-owner indexing, erasure.
// corrupt, when set, may rewrite a reply before it is returned, to show
// that the oracle catches a wrong one.
type fakeTarget struct {
	mu      sync.Mutex
	vals    map[string][]byte
	owner   map[string]string
	expires map[string]time.Time
	log     []string // every request received, in order
	corrupt func(kind, key string, v []byte) ([]byte, bool)
}

func newFake() *fakeTarget {
	return &fakeTarget{vals: map[string][]byte{}, owner: map[string]string{}, expires: map[string]time.Time{}}
}

func (f *fakeTarget) record(parts ...string) { f.log = append(f.log, strings.Join(parts, " ")) }

func (f *fakeTarget) live(key string) bool {
	_, ok := f.vals[key]
	return ok && time.Now().Before(f.expires[key])
}

func (f *fakeTarget) reply(kind, key string, v []byte, found bool) ([]byte, bool) {
	if f.corrupt == nil {
		return v, found
	}
	if !found {
		return f.corrupt(kind, key, nil)
	}
	return f.corrupt(kind, key, append([]byte(nil), v...))
}

func (f *fakeTarget) put(key string, value []byte, owner string, ttl time.Duration) {
	f.vals[key] = append([]byte(nil), value...)
	f.owner[key] = owner
	f.expires[key] = time.Now().Add(ttl)
}

func (f *fakeTarget) GPut(_ context.Context, key string, value []byte, owner string, ttl time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("GPUT", key, string(value), owner, ttl.String())
	f.put(key, value, owner, ttl)
	return nil
}

func (f *fakeTarget) GMPut(_ context.Context, keys []string, values [][]byte, owner string, ttl time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, k := range keys {
		f.record("GMPUT", k, string(values[i]), owner, ttl.String())
		f.put(k, values[i], owner, ttl)
	}
	return nil
}

func (f *fakeTarget) GGet(_ context.Context, key string) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("GGET", key)
	v, ok := f.reply("GGET", key, f.vals[key], f.live(key))
	return v, ok, nil
}

func (f *fakeTarget) GMGet(_ context.Context, keys []string) ([][]byte, []bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		f.record("GMGET", k)
		vals[i], found[i] = f.reply("GMGET", k, f.vals[k], f.live(k))
	}
	return vals, found, nil
}

func (f *fakeTarget) subject(owner string) map[string][]byte {
	out := map[string][]byte{}
	for k, o := range f.owner {
		if o == owner && f.live(k) {
			if v, ok := f.reply("GETUSER", k, f.vals[k], true); ok {
				out[k] = v
			}
		}
	}
	if f.corrupt != nil {
		if v, ok := f.corrupt("GETUSER-EXTRA", owner, nil); ok {
			k, _, _ := decodeValue(v)
			out[k] = v
		}
	}
	return out
}

func (f *fakeTarget) GetUser(_ context.Context, owner string) (map[string][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("GETUSER", owner)
	return f.subject(owner), nil
}

func (f *fakeTarget) ExportUser(_ context.Context, owner string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("EXPORTUSER", owner)
	type rec struct {
		Key      string            `json:"key"`
		Value    []byte            `json:"value"`
		Metadata map[string]string `json:"metadata"`
	}
	var recs []rec
	for k, v := range f.subject(owner) {
		recs = append(recs, rec{Key: k, Value: v, Metadata: map[string]string{"owner": owner}})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return json.Marshal(map[string]any{"format": "gdprstore-export/v1", "owner": owner, "records": recs})
}

func (f *fakeTarget) ForgetUser(_ context.Context, owner string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("FORGETUSER", owner)
	n := int64(0)
	for k, o := range f.owner {
		if o == owner {
			delete(f.vals, k)
			delete(f.owner, k)
			n++
		}
	}
	if f.corrupt != nil {
		if _, ok := f.corrupt("FORGETUSER", owner, nil); ok {
			n++
		}
	}
	return n, nil
}

// testWorkload is a small data set with every kind of traffic.
func testWorkload() *workload {
	return &workload{
		id: 9, name: "test",
		subjects: 12, records: 6, churnRecords: 3,
		timing: "eventual", aofSync: "everysec",
		dataConns: 2, longTTL: time.Hour, shortTTL: 2 * time.Second, shortTTLFrac: 0.2,
		rightsRate: 1000, forgetFrac: 0.2,
	}
}

// fakeRun preloads a fake target through the benchmark's own preload and
// returns a runner and a worker driving it.
func fakeRun(seed uint64, f *fakeTarget) (*runner, *worker) {
	w := testWorkload()
	r := &runner{w: w, seed: seed, z: newZipf(w.subjects), churnN: 8}
	r.m = newModel(seed, w, r.churnN)
	r.data = []*dataStream{newDataStream(seed, w, r.z, 0), newDataStream(seed, w, r.z, 1)}
	r.rights = newRightsStream(newRNG(seed, uint64(w.id), 2), r.z, 0, w.forgetFrac, r.churnN)
	wk := &worker{r: r, t: f}
	ctx := context.Background()
	for s := 0; s < w.subjects; s++ {
		wk.preloadSubject(ctx, false, s)
	}
	for s := 0; s < r.churnN; s++ {
		wk.preloadSubject(ctx, true, s)
	}
	return r, wk
}
