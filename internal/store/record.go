package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// The compliance layer's writes journal as one record per write instead of
// the engine's SET/SETEX plus a separate metadata record:
//
//	GPUT  key value deadline meta
//	GMPUT deadline meta key1 value1 [key2 value2 ...]   (one per touched shard)
//
// deadline is empty (no TTL) or 8 bytes: the absolute deadline as
// big-endian int64 Unix nanoseconds, so replay needs no text parse. meta
// is opaque to the engine — the compliance layer's metadata encoding,
// versioned by its first byte — and may be empty, in which case the record
// carries data only (the engine ignores it either way). The engine applies
// the data half; the compliance layer claims the metadata half on replay.
const (
	RecordPut      = "GPUT"
	RecordPutBatch = "GMPUT"
)

// deadlineLen is the encoded size of a present record deadline.
const deadlineLen = 8

// AppendDeadline appends t in the GPUT/GMPUT deadline encoding: nothing
// for the zero time, else 8 bytes of big-endian Unix nanoseconds (clamped
// to the int64 range, years 1678-2262).
func AppendDeadline(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return dst
	}
	return binary.BigEndian.AppendUint64(dst, uint64(UnixNanoClamped(t)))
}

// UnixNanoClamped is t.UnixNano saturated at the int64 range instead of
// undefined outside it.
func UnixNanoClamped(t time.Time) int64 {
	switch {
	case t.Before(minNanoTime):
		return math.MinInt64
	case t.After(maxNanoTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

// DecodeRecordDeadline parses a GPUT/GMPUT deadline argument; the zero
// time means no TTL.
func DecodeRecordDeadline(b []byte) (time.Time, error) {
	switch len(b) {
	case 0:
		return time.Time{}, nil
	case deadlineLen:
		return time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("store: record deadline is %d bytes, want 0 or %d", len(b), deadlineLen)
}

// putRec is one GPUT record's argument vector together with room for its
// key, deadline and metadata bytes, so journaling a typical write costs
// one allocation (a larger encoding spills to the heap on its own). err
// receives the journal's verdict on the record.
type putRec struct {
	args   [4][]byte
	err    error
	inline [96]byte
}

// MetaEncoder appends a record's metadata encoding to dst. The engine
// calls it only when a journal is attached, so nothing is encoded for a
// store that does not persist or replicate.
type MetaEncoder func(dst []byte) []byte

// PutRecord stores value under key with an absolute deadline (zero: no
// TTL, clearing any existing one) and journals one GPUT record whose
// metadata argument meta appends (nil: empty). The record is enqueued
// under the shard lock like every engine record, so it precedes any
// expiry DEL of the key in the journal. It returns the journal's error for
// the record (say, a failed AOF write or fsync): the value is stored in
// memory either way, but the write is not durable and must not be
// acknowledged as such.
func (db *DB) PutRecord(key string, value []byte, deadline time.Time, meta MetaEncoder) error {
	sh := db.shardFor(key)
	sh.mu.Lock()
	db.putLocked(sh, key, value, deadline)
	var r *putRec
	if db.jq.active() {
		r = &putRec{}
		buf := append(r.inline[:0], key...)
		nk := len(buf)
		buf = AppendDeadline(buf, deadline)
		nd := len(buf)
		if meta != nil {
			buf = meta(buf)
		}
		r.args = [4][]byte{buf[:nk:nk], value, buf[nk:nd:nd], buf[nd:]}
		db.jq.enqueueChecked(&r.err, RecordPut, r.args[:]...)
	}
	sh.mu.Unlock()
	db.jq.flush()
	if r == nil {
		return nil
	}
	return r.err
}

// PutBatchRecord is PutRecord for a batch sharing one deadline and one
// metadata encoding: one lock acquisition and one GMPUT record per touched
// shard. keys and values must have equal length. Like SetBatch, the batch
// is atomic per shard, not globally. It returns the first journal error
// among the batch's records.
func (db *DB) PutBatchRecord(keys []string, values [][]byte, deadline time.Time, meta MetaEncoder) error {
	if len(keys) == 0 {
		return nil
	}
	journal := db.jq.active()
	var dl, mb []byte
	var jerr *error
	if journal {
		buf := AppendDeadline(nil, deadline)
		nd := len(buf)
		if meta != nil {
			buf = meta(buf)
		}
		dl, mb = buf[:nd:nd], buf[nd:]
		jerr = new(error)
	}
	for sh, idxs := range db.batchGroup(keys) {
		sh.mu.Lock()
		var args [][]byte
		if journal {
			args = append(make([][]byte, 0, 2*len(idxs)+2), dl, mb)
		}
		for _, i := range idxs {
			db.putLocked(sh, keys[i], values[i], deadline)
			if journal {
				args = append(args, []byte(keys[i]), values[i])
			}
		}
		if journal {
			db.jq.enqueueChecked(jerr, RecordPutBatch, args...)
		}
		sh.mu.Unlock()
	}
	db.jq.flush()
	if jerr == nil {
		return nil
	}
	return *jerr
}

// putLocked stores a copy of value under key with an absolute deadline
// (zero: no TTL). The caller holds sh.mu.
func (db *DB) putLocked(sh *shard, key string, value []byte, deadline time.Time) {
	sh.dict[key] = cloneBytes(value)
	if deadline.IsZero() {
		sh.removeExpireLocked(key)
	} else {
		db.setExpireLocked(sh, key, deadline)
	}
}

// Range calls fn for every live key with its value and deadline (zero: no
// TTL), holding every shard lock so the walk is one consistent cut, like
// Snapshot. Expired unreclaimed keys are skipped. fn must not call back
// into the DB.
func (db *DB) Range(fn func(key string, value []byte, deadline time.Time) error) error {
	db.lockAll()
	defer db.unlockAll()
	now := db.clk.Now()
	for _, sh := range db.shards {
		for k, v := range sh.dict {
			t, ok := sh.expires[k]
			if ok && !t.After(now) {
				continue // expired: do not resurrect
			}
			if err := fn(k, v, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyPut applies the data half of one GPUT/GMPUT entry.
func (db *DB) applyPut(key string, value []byte, deadline time.Time) {
	sh := db.shardFor(key)
	sh.mu.Lock()
	db.putLocked(sh, key, value, deadline)
	sh.mu.Unlock()
}

// CheckPutRecord validates a GPUT/GMPUT argument vector and returns its
// deadline, so the compliance layer rejects a malformed record before
// applying either half.
func CheckPutRecord(name string, args [][]byte) (time.Time, error) {
	switch name {
	case RecordPut:
		if len(args) != 4 {
			return time.Time{}, fmt.Errorf("store: apply GPUT: need 4 args, got %d", len(args))
		}
		return DecodeRecordDeadline(args[2])
	case RecordPutBatch:
		if len(args) < 4 || len(args)%2 != 0 {
			return time.Time{}, fmt.Errorf("store: apply GMPUT: need deadline, meta and key/value pairs, got %d args", len(args))
		}
		return DecodeRecordDeadline(args[0])
	}
	return time.Time{}, fmt.Errorf("store: %q is not a put record", name)
}
