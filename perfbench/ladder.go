package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gdprstore/internal/aof"
	"gdprstore/internal/audit"
	"gdprstore/internal/core"
	"gdprstore/internal/cryptoutil"
	"gdprstore/internal/store"
)

// Caps on how much of the traced stream the ladder replays per layer.
const (
	ladderDataOps   = 3000
	ladderRightsOps = 300
	ladderForgets   = 100
)

// ladder replays the traced SDK stream into each layer's public entry
// points inside the benchmark process, each opened with the workload's
// configuration, and reports each layer's mean time per call.
type ladder struct {
	w    *workload
	seed uint64
	dir  string
	tr   *tracer

	data, rights, forgets []tracedOp
	live                  []int // live subjects the replayed stream touches
	churn                 []int // churn subjects it forgets

	// journal holds, per replayed data request, the records the ladder's
	// core.Store wrote for it, which the aof and audit steps append again.
	journal []journaled

	us map[string]samples // span name -> durations
}

// journaled is what core.Store wrote for one replayed data request: its
// AOF records (command name first) and its audit records.
type journaled struct {
	t              tracedOp
	aofFrom, aofTo uint64 // indices of its AOF appends: [aofFrom, aofTo)
	seqFrom, seqTo uint64 // sequence numbers of its audit records: [seqFrom, seqTo)
	aof            [][][]byte
	audit          []audit.Record
}

func newLadder(w *workload, seed uint64, dir string, tr *tracer) *ladder {
	l := &ladder{w: w, seed: seed, dir: dir, tr: tr, us: map[string]samples{}}
	seen := map[int]bool{}
	for _, t := range tr.ops {
		switch t.op.kind {
		case opGPut, opGGet:
			if len(l.data) >= ladderDataOps {
				continue
			}
			l.data = append(l.data, t)
		case opGetUser, opExportUser:
			if len(l.rights) >= ladderRightsOps {
				continue
			}
			l.rights = append(l.rights, t)
		case opForget:
			if len(l.forgets) < ladderForgets {
				l.forgets = append(l.forgets, t)
				l.churn = append(l.churn, t.op.subject)
			}
			continue
		}
		if !seen[t.op.subject] {
			seen[t.op.subject] = true
			l.live = append(l.live, t.op.subject)
		}
	}
	return l
}

// time runs fn as one ladder span replaying t.
func (l *ladder) time(name string, t tracedOp, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	l.us[name] = append(l.us[name], end.Sub(start))
	l.tr.add([]span{{Req: t.span, ID: l.tr.ids.Add(1), Parent: t.span, Name: name,
		Start: l.tr.ns(start), End: l.tr.ns(end)}}, nil)
	return nil
}

func (l *ladder) mean(name string) float64 { return us(l.us[name].mean()) }

func (l *ladder) key(t tracedOp) (key, owner string) {
	owner = liveSubject(t.op.subject)
	return recordKey(owner, t.op.record), owner
}

// checkValue confirms a value read inside the ladder belongs to its key.
func checkValue(key string, v []byte) error {
	k, _, err := decodeValue(v)
	if err != nil {
		return err
	}
	if k != key {
		return fmt.Errorf("%s: read the value of %s", key, k)
	}
	return nil
}

func (l *ladder) run() error {
	for _, step := range []func() error{l.core, l.store, l.crypto, l.audit, l.aof} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// core replays the stream through core.Store: Put/Get for the data path
// as the processor, GetUser/Export/Forget as the controller.
func (l *ladder) core() error {
	cfg := core.Config{
		Compliant:    true,
		Capability:   core.CapabilityFull,
		AuditEnabled: true,
		AOFPath:      filepath.Join(l.dir, "ladder-core.aof"),
		AuditPath:    filepath.Join(l.dir, "ladder-core.audit"),
	}
	if l.w.timing == "realtime" {
		cfg.Timing = core.TimingRealTime
	}
	if l.w.envelope {
		cfg.Envelope = true
		cfg.MasterKey = envelopeKey()
	}
	s, err := core.Open(cfg)
	if err != nil {
		return fmt.Errorf("ladder core: %w", err)
	}
	if err := l.coreReplay(s); err != nil {
		s.Close()
		return err
	}
	if err := s.Close(); err != nil {
		return fmt.Errorf("ladder core: %w", err)
	}
	return l.readJournal(cfg.AOFPath)
}

func (l *ladder) coreReplay(s *core.Store) error {
	if err := registerLadderPrincipals(s.ACL()); err != nil {
		return err
	}
	proc := core.Ctx{Actor: processorID, Purpose: dataPurpose}
	ctl := core.Ctx{Actor: controllerID, Purpose: dataPurpose}
	put := func(owner string, records int, keyOf func(int) string) error {
		es := make([]core.BatchEntry, records)
		for r := range es {
			k := keyOf(r)
			es[r] = core.BatchEntry{Key: k, Value: makeValue(l.seed, k, preloadVersion)}
		}
		return s.PutBatch(proc, es, core.PutOptions{Owner: owner, Purposes: []string{dataPurpose}, TTL: l.w.longTTL})
	}
	for _, subj := range l.live {
		owner := liveSubject(subj)
		if err := put(owner, l.w.records, func(r int) string { return recordKey(owner, r) }); err != nil {
			return fmt.Errorf("ladder core preload: %w", err)
		}
	}
	for _, subj := range l.churn {
		owner := churnSubject(subj)
		if err := put(owner, l.w.churnRecords, func(r int) string { return recordKey(owner, r) }); err != nil {
			return fmt.Errorf("ladder core preload: %w", err)
		}
	}
	l.journal = make([]journaled, len(l.data))
	for i, t := range l.data {
		key, owner := l.key(t)
		j := &l.journal[i]
		j.t, j.aofFrom, j.seqFrom = t, s.Log().Appends(), s.Trail().Seq()+1
		var err error
		if t.op.kind == opGPut {
			v := makeValue(l.seed, key, t.op.version)
			err = l.time("core.put", t, func() error {
				return s.Put(proc, key, v, core.PutOptions{Owner: owner, Purposes: []string{dataPurpose}, TTL: t.op.ttl})
			})
		} else {
			var v []byte
			err = l.time("core.get", t, func() (err error) { v, err = s.Get(proc, key); return err })
			if err == nil {
				err = checkValue(key, v)
			}
		}
		if err != nil {
			return err
		}
		j.aofTo, j.seqTo = s.Log().Appends(), s.Trail().Seq()+1
	}
	if err := l.auditJournal(s.Trail()); err != nil {
		return err
	}
	for _, t := range l.rights {
		owner := liveSubject(t.op.subject)
		var err error
		if t.op.kind == opGetUser {
			err = l.time("core.getuser", t, func() error {
				recs, err := s.GetUser(ctl, owner)
				if err == nil && len(recs) == 0 {
					err = fmt.Errorf("GetUser %s: no records", owner)
				}
				return err
			})
		} else {
			err = l.time("core.export", t, func() error {
				b, err := s.Export(ctl, owner)
				if err == nil && !json.Valid(b) {
					err = fmt.Errorf("Export %s: invalid JSON", owner)
				}
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	for _, t := range l.forgets {
		owner := churnSubject(t.op.subject)
		if err := l.time("core.forget", t, func() error {
			n, err := s.Forget(ctl, owner)
			if err == nil && n != l.w.churnRecords {
				err = fmt.Errorf("Forget %s erased %d records, want %d", owner, n, l.w.churnRecords)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// auditJournal reads back the audit records core.Store wrote for each
// replayed data request, by sequence number.
func (l *ladder) auditJournal(tr *audit.Trail) error {
	bySeq := map[uint64]audit.Record{}
	if err := tr.Scan(func(r audit.Record) error { bySeq[r.Seq] = r; return nil }); err != nil {
		return fmt.Errorf("ladder core audit scan: %w", err)
	}
	for i := range l.journal {
		j := &l.journal[i]
		for q := j.seqFrom; q < j.seqTo; q++ {
			r, ok := bySeq[q]
			if !ok {
				return fmt.Errorf("ladder core: audit record %d missing from the trail", q)
			}
			j.audit = append(j.audit, r)
		}
	}
	return nil
}

// readJournal loads the AOF core.Store wrote and hands each replayed
// request its own records.
func (l *ladder) readJournal(path string) error {
	var recs [][][]byte
	if _, err := aof.Load(path, nil, func(name string, args [][]byte) error {
		recs = append(recs, append([][]byte{[]byte(name)}, args...))
		return nil
	}); err != nil {
		return fmt.Errorf("ladder core: %w", err)
	}
	for i := range l.journal {
		j := &l.journal[i]
		if j.aofTo > uint64(len(recs)) {
			return fmt.Errorf("ladder core: AOF holds %d records, a replayed request wrote up to record %d", len(recs), j.aofTo)
		}
		j.aof = recs[j.aofFrom:j.aofTo]
	}
	return nil
}

// store replays the data path through the engine alone.
func (l *ladder) store() error {
	strategy := store.ExpiryLazyProbabilistic
	if l.w.timing == "realtime" {
		strategy = store.ExpiryFastScan
	}
	db := store.New(store.Options{Strategy: strategy})
	for _, subj := range l.live {
		owner := liveSubject(subj)
		for r := 0; r < l.w.records; r++ {
			k := recordKey(owner, r)
			db.SetEX(k, makeValue(l.seed, k, preloadVersion), l.w.longTTL)
		}
	}
	for _, t := range l.data {
		key, _ := l.key(t)
		if t.op.kind == opGPut {
			v := makeValue(l.seed, key, t.op.version)
			_ = l.time("store.setex", t, func() error { db.SetEX(key, v, t.op.ttl); return nil })
			continue
		}
		var v []byte
		err := l.time("store.get", t, func() error {
			var ok bool
			if v, ok = db.Get(key); !ok {
				return fmt.Errorf("store.Get %s: missing", key)
			}
			return nil
		})
		if err == nil {
			err = checkValue(key, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// crypto seals every written value and opens every read one under a
// per-owner key, as envelope encryption does.
func (l *ladder) crypto() error {
	kr, err := cryptoutil.NewKeyring(envelopeKey())
	if err != nil {
		return err
	}
	sealed := map[string][]byte{}
	for _, t := range l.data {
		key, owner := l.key(t)
		dk, _, _, err := kr.Ensure(owner)
		if err != nil {
			return err
		}
		if t.op.kind == opGPut {
			v := makeValue(l.seed, key, t.op.version)
			if err := l.time("cryptoutil.seal", t, func() (err error) {
				sealed[key], err = cryptoutil.Seal(dk, v, []byte(key))
				return err
			}); err != nil {
				return err
			}
			continue
		}
		ct, ok := sealed[key]
		if !ok {
			if ct, err = cryptoutil.Seal(dk, makeValue(l.seed, key, preloadVersion), []byte(key)); err != nil {
				return err
			}
			sealed[key] = ct
		}
		var pt []byte
		if err := l.time("cryptoutil.open", t, func() (err error) {
			pt, err = cryptoutil.Open(dk, ct, []byte(key))
			return err
		}); err != nil {
			return err
		}
		if err := checkValue(key, pt); err != nil {
			return err
		}
	}
	return nil
}

// audit appends the audit records core.Store wrote for each replayed data
// request, in the workload's durability mode.
func (l *ladder) audit() error {
	mode := audit.SyncBatched
	if l.w.timing == "realtime" {
		mode = audit.SyncEveryOp
	}
	t, err := audit.Open(audit.Options{Path: filepath.Join(l.dir, "ladder.audit"), Mode: mode})
	if err != nil {
		return fmt.Errorf("ladder audit: %w", err)
	}
	for _, j := range l.journal {
		for _, rec := range j.audit {
			if err := l.time("audit.append", j.t, func() error { _, err := t.Append(rec); return err }); err != nil {
				t.Close()
				return err
			}
		}
	}
	return t.Close()
}

// aof appends the AOF records core.Store wrote for each replayed write
// under the workload's fsync policy.
func (l *ladder) aof() error {
	policy := aof.SyncEverySec
	if l.w.aofSync == "always" {
		policy = aof.SyncAlways
	}
	lg, err := aof.Open(filepath.Join(l.dir, "ladder.aof"), aof.Options{Policy: policy})
	if err != nil {
		return fmt.Errorf("ladder aof: %w", err)
	}
	for _, j := range l.journal {
		for _, rec := range j.aof {
			if err := l.time("aof.append", j.t, func() error { return lg.Append(string(rec[0]), rec[1:]...) }); err != nil {
				lg.Close()
				return err
			}
		}
	}
	return lg.Close()
}

func envelopeKey() []byte {
	k, err := hex.DecodeString(envelopeKeyHex)
	if err != nil {
		panic(err)
	}
	return k
}
