package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// expirySlack absorbs the difference between the server's and the load
// generator's reading of the same wall clock when a reply is judged
// against a retention deadline.
const expirySlack = 25 * time.Millisecond

// keyState is the oracle's knowledge of one key: the last version whose
// write was acknowledged (with when it was sent and acknowledged, and its
// TTL), and the highest version sent so far.
type keyState struct {
	acked                int64
	issued               int64
	sentNs, ackNs, ttlNs int64
	forgotten            bool
}

// model is the reply oracle: a record of every write sent and acknowledged,
// against which every reply is checked. Each key has one writer, so the
// model is exact; the key stripes only order a writer's updates with
// concurrent readers on other connections.
type model struct {
	seed  uint64
	w     *workload
	live  []keyState // subject*records + record
	churn []keyState // churn subject*churnRecords + record
	mu    [512]sync.Mutex

	failed atomic.Int64
	errMu  sync.Mutex
	errs   []string
}

func newModel(seed uint64, w *workload, churnSubjects int) *model {
	return &model{
		seed:  seed,
		w:     w,
		live:  make([]keyState, w.subjects*w.records),
		churn: make([]keyState, churnSubjects*w.churnRecords),
	}
}

// ref names one key of the model.
type ref struct {
	churn bool
	idx   int
}

func (m *model) liveRef(subject, record int) ref {
	return ref{idx: subject*m.w.records + record}
}

func (m *model) churnRef(subject, record int) ref {
	return ref{churn: true, idx: subject*m.w.churnRecords + record}
}

func (m *model) key(r ref) string {
	if r.churn {
		return recordKey(churnSubject(r.idx/m.w.churnRecords), r.idx%m.w.churnRecords)
	}
	return recordKey(liveSubject(r.idx/m.w.records), r.idx%m.w.records)
}

func (m *model) state(r ref) *keyState {
	if r.churn {
		return &m.churn[r.idx]
	}
	return &m.live[r.idx]
}

func (m *model) lock(r ref) *sync.Mutex {
	i := r.idx
	if r.churn {
		i = ^i
	}
	return &m.mu[uint(i)%uint(len(m.mu))]
}

// fail counts one wrong or failed reply and keeps the first few messages.
func (m *model) fail(format string, args ...any) {
	m.failed.Add(1)
	m.errMu.Lock()
	if len(m.errs) < 10 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
	m.errMu.Unlock()
}

func (m *model) errors() []string {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return append([]string(nil), m.errs...)
}

// sent records that version v of r is on the wire.
func (m *model) sent(r ref, v int64) {
	mu := m.lock(r)
	mu.Lock()
	if st := m.state(r); v > st.issued {
		st.issued = v
	}
	mu.Unlock()
}

// acked records that the write of version v of r, sent at sentNs with ttl,
// was acknowledged at ackNs.
func (m *model) acked(r ref, v int64, ttl time.Duration, sentNs, ackNs int64) {
	mu := m.lock(r)
	mu.Lock()
	st := m.state(r)
	if v > st.acked {
		st.acked, st.sentNs, st.ackNs, st.ttlNs = v, sentNs, ackNs, int64(ttl)
	}
	mu.Unlock()
}

// forget marks every record of churn subject s erased.
func (m *model) forget(s int) {
	for rec := 0; rec < m.w.churnRecords; rec++ {
		r := m.churnRef(s, rec)
		mu := m.lock(r)
		mu.Lock()
		m.state(r).forgotten = true
		mu.Unlock()
	}
}

// snapshots records what the oracle knows about refs now.
func (m *model) snapshots(refs []ref) []keyState {
	out := make([]keyState, len(refs))
	for i, r := range refs {
		out[i] = m.snapshot(r)
	}
	return out
}

// issuedAll returns the highest version sent of each of refs.
func (m *model) issuedAll(refs []ref) []int64 {
	out := make([]int64, len(refs))
	for i, r := range refs {
		out[i] = m.issued(r)
	}
	return out
}

// snapshot is what the oracle knew about a key when a read was sent.
func (m *model) snapshot(r ref) keyState {
	mu := m.lock(r)
	mu.Lock()
	st := *m.state(r)
	mu.Unlock()
	return st
}

func (m *model) issued(r ref) int64 {
	mu := m.lock(r)
	mu.Lock()
	v := m.state(r).issued
	mu.Unlock()
	return v
}

// checkRead judges one read of r: value is the reply (found=false for a
// miss), snap the oracle's state when the read was sent at sendNs, hi the
// highest version sent when the reply arrived at replyNs. It returns a
// description of what is wrong, or "" for a correct reply.
func (m *model) checkRead(r ref, snap keyState, hi, sendNs, replyNs int64, value []byte, found bool) string {
	key := m.key(r)
	if snap.forgotten {
		if found {
			return fmt.Sprintf("%s: forgotten record served", key)
		}
		return ""
	}
	if !found {
		if snap.acked == 0 {
			return ""
		}
		// A miss is correct only once the acknowledged version's deadline
		// (no earlier than its send time plus TTL) has passed.
		if snap.sentNs+snap.ttlNs > replyNs+int64(expirySlack) {
			return fmt.Sprintf("%s: acknowledged version %d missing %v before its deadline",
				key, snap.acked, time.Duration(snap.sentNs+snap.ttlNs-replyNs))
		}
		return ""
	}
	k, v, err := decodeValue(value)
	if err != nil {
		return fmt.Sprintf("%s: corrupt value: %v", key, err)
	}
	if k != key {
		return fmt.Sprintf("%s: value belongs to key %s", key, k)
	}
	if v < snap.acked {
		return fmt.Sprintf("%s: stale version %d, version %d was acknowledged before the read", key, v, snap.acked)
	}
	if v > hi {
		return fmt.Sprintf("%s: version %d was never written (highest sent %d)", key, v, hi)
	}
	if !bytes.Equal(value, makeValue(m.seed, key, v)) {
		return fmt.Sprintf("%s: value of version %d differs from what was written", key, v)
	}
	// No record may be served after its deadline (no later than its ack
	// time plus TTL) passed before the read was sent.
	if v == snap.acked && snap.ackNs+snap.ttlNs+int64(expirySlack) < sendNs {
		return fmt.Sprintf("%s: version %d served %v after its deadline",
			key, v, time.Duration(sendNs-snap.ackNs-snap.ttlNs))
	}
	return ""
}

// subjectRefs lists the keys of a live subject or a churn subject.
func (m *model) subjectRefs(churn bool, s int) []ref {
	n := m.w.records
	if churn {
		n = m.w.churnRecords
	}
	out := make([]ref, n)
	for i := range out {
		if churn {
			out[i] = m.churnRef(s, i)
		} else {
			out[i] = m.liveRef(s, i)
		}
	}
	return out
}

// checkSubject judges a GETUSER or EXPORTUSER reply for owner: it must
// hold only the owner's keys, and each record must pass checkRead against
// the snapshots taken when the request was sent and the highest versions
// sent when the reply arrived.
func (m *model) checkSubject(owner string, refs []ref, snaps []keyState, his []int64, sendNs, replyNs int64, got map[string][]byte) string {
	want := make(map[string]int, len(refs))
	for i, r := range refs {
		want[m.key(r)] = i
	}
	var stray []string
	for k := range got {
		if _, ok := want[k]; !ok {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Sprintf("%s: reply holds keys of other subjects: %s", owner, strings.Join(stray, ","))
	}
	for i, r := range refs {
		v, ok := got[m.key(r)]
		if msg := m.checkRead(r, snaps[i], his[i], sendNs, replyNs, v, ok); msg != "" {
			return owner + ": " + msg
		}
	}
	return ""
}

// allRefs returns every key the oracle expects the store to hold, in key
// index order, for the post-restart durability check.
func (m *model) allRefs() []ref {
	out := make([]ref, 0, len(m.live)+len(m.churn))
	for i := range m.live {
		out = append(out, ref{idx: i})
	}
	for i := range m.churn {
		out = append(out, ref{churn: true, idx: i})
	}
	return out
}
