package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"gdprstore/internal/store"
)

// Metadata is the per-record GDPR metadata the compliance layer maintains
// alongside each value. It captures everything Article 15 obliges the
// controller to report back to the data subject: processing purposes,
// recipients, the storage period, and automated decision-making; plus the
// origin (Art. 14), objections (Art. 21), and storage location (Art. 46).
type Metadata struct {
	// Owner is the data subject the record belongs to. Required.
	Owner string `json:"owner"`
	// Purposes whitelists the processing purposes the subject consented to
	// (Art. 5 purpose limitation, Art. 13).
	Purposes []string `json:"purposes,omitempty"`
	// Objections blacklists purposes the subject has objected to
	// (Art. 21); an objection overrides a listed purpose.
	Objections []string `json:"objections,omitempty"`
	// Origin records where the data was obtained (Art. 14-15).
	Origin string `json:"origin,omitempty"`
	// SharedWith lists recipients to whom the record was disclosed
	// (Art. 15(1)(c)).
	SharedWith []string `json:"shared_with,omitempty"`
	// Expiry is the retention deadline (Art. 5 storage limitation). Zero
	// means no bound, which full compliance rejects.
	Expiry time.Time `json:"expiry,omitempty"`
	// Location is the region the record is stored in (Art. 46).
	Location string `json:"location,omitempty"`
	// AutomatedDecisions marks use in automated decision-making,
	// disclosed under Art. 15(1)(h) and restricted by Art. 22.
	AutomatedDecisions bool `json:"automated_decisions,omitempty"`
	// Created is when the record was first stored.
	Created time.Time `json:"created"`
	// KeyEpoch is the owner's keyring epoch the value was sealed under
	// (envelope mode). A record whose epoch is older than the keyring's
	// current epoch was crypto-shredded: its key is destroyed and the
	// ciphertext merely awaits the lazy-delete sweep.
	KeyEpoch uint64 `json:"key_epoch,omitempty"`
}

// clone returns a deep copy so callers cannot mutate indexed state.
func (m Metadata) clone() Metadata {
	c := m
	c.Purposes = append([]string(nil), m.Purposes...)
	c.Objections = append([]string(nil), m.Objections...)
	c.SharedWith = append([]string(nil), m.SharedWith...)
	return c
}

// PermitsPurpose reports whether processing under the given purpose is
// permitted: it must be whitelisted and not objected to. The empty purpose
// is never permitted on records with purpose restrictions.
func (m Metadata) PermitsPurpose(purpose string) bool {
	for _, o := range m.Objections {
		if o == purpose || o == "*" {
			return false
		}
	}
	for _, p := range m.Purposes {
		if p == purpose || p == "*" {
			return true
		}
	}
	return false
}

// Metadata's binary encoding, version 1, is append-style (the
// resp.WriteCommandBytes idiom: callers pass a scratch buffer):
//
//	version   1 byte (metaVersion)
//	flags     1 byte (metaFlag*)
//	owner     string
//	purposes  list
//	objections list
//	origin    string
//	shared    list
//	location  string
//	expiry    8 bytes, big-endian Unix nanoseconds, if metaFlagExpiry
//	created   8 bytes, big-endian Unix nanoseconds, if metaFlagCreated
//	key epoch uvarint
//
// A string is a uvarint length and its bytes; a list is a uvarint count
// and that many strings. Decoding is strict — minimal varints, no unknown
// flag bits, no trailing bytes — so every accepted encoding is the one
// appendMetadata produces. Times decode in UTC without a monotonic
// reading. Journals written before the binary codec carry JSON metadata,
// whose first byte is '{' where this one's is the version; decodeMetadata
// still reads it so old AOFs replay.
const metaVersion = 1

const (
	metaFlagAutomated = 1 << iota
	metaFlagExpiry
	metaFlagCreated
	// metaFlagRecordDeadline marks an expiry equal to the enclosing
	// GPUT/GMPUT record's deadline, so the deadline is stored once. It is
	// invalid where there is no deadline (a standalone encoding).
	metaFlagRecordDeadline
)

var errMetaCorrupt = errors.New("core: decode metadata: malformed binary encoding")

// appendMetadata appends m's encoding. deadline is that of the enclosing
// GPUT/GMPUT record, whose expiry is then not repeated, or zero for a
// standalone encoding (GMETA records).
func appendMetadata(dst []byte, m Metadata, deadline time.Time) []byte {
	var flags byte
	if m.AutomatedDecisions {
		flags |= metaFlagAutomated
	}
	switch {
	case m.Expiry.IsZero():
	case !deadline.IsZero() && store.UnixNanoClamped(m.Expiry) == store.UnixNanoClamped(deadline):
		// Compared as encoded: two times past the int64-nanosecond range
		// both encode as its bound, and the decoder sees them equal.
		flags |= metaFlagRecordDeadline
	default:
		flags |= metaFlagExpiry
	}
	if !m.Created.IsZero() {
		flags |= metaFlagCreated
	}
	dst = append(dst, metaVersion, flags)
	dst = appendString(dst, m.Owner)
	dst = appendList(dst, m.Purposes)
	dst = appendList(dst, m.Objections)
	dst = appendString(dst, m.Origin)
	dst = appendList(dst, m.SharedWith)
	dst = appendString(dst, m.Location)
	if flags&metaFlagExpiry != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(store.UnixNanoClamped(m.Expiry)))
	}
	if flags&metaFlagCreated != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(store.UnixNanoClamped(m.Created)))
	}
	return binary.AppendUvarint(dst, m.KeyEpoch)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendList(dst []byte, l []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for _, s := range l {
		dst = appendString(dst, s)
	}
	return dst
}

// decodeMetadata decodes metadata written by appendMetadata with the same
// deadline, or the JSON of older journals.
func decodeMetadata(b []byte, deadline time.Time) (Metadata, error) {
	if len(b) > 0 && b[0] == '{' {
		var m Metadata
		if err := json.Unmarshal(b, &m); err != nil {
			return Metadata{}, fmt.Errorf("core: decode metadata: %w", err)
		}
		return m, nil
	}
	if len(b) < 2 {
		return Metadata{}, errMetaCorrupt
	}
	if b[0] != metaVersion {
		return Metadata{}, fmt.Errorf("core: decode metadata: unknown encoding version %d", b[0])
	}
	flags := b[1]
	known := byte(metaFlagAutomated | metaFlagExpiry | metaFlagCreated)
	if !deadline.IsZero() {
		known |= metaFlagRecordDeadline
	}
	if flags&^known != 0 || flags&(metaFlagExpiry|metaFlagRecordDeadline) == metaFlagExpiry|metaFlagRecordDeadline {
		return Metadata{}, errMetaCorrupt
	}
	d := metaDecoder{b: b[2:]}
	m := Metadata{
		Owner:              d.string(),
		Purposes:           d.list(),
		Objections:         d.list(),
		Origin:             d.string(),
		SharedWith:         d.list(),
		Location:           d.string(),
		AutomatedDecisions: flags&metaFlagAutomated != 0,
	}
	if flags&metaFlagExpiry != 0 {
		// An expiry equal to the deadline has its own flag; spelling it
		// out is not the canonical encoding.
		if m.Expiry = d.time(); !deadline.IsZero() && m.Expiry.Equal(deadline) {
			return Metadata{}, errMetaCorrupt
		}
	}
	if flags&metaFlagRecordDeadline != 0 {
		m.Expiry = deadline
	}
	if flags&metaFlagCreated != 0 {
		m.Created = d.time()
	}
	m.KeyEpoch = d.uvarint()
	if d.bad || len(d.b) != 0 {
		return Metadata{}, errMetaCorrupt
	}
	return m, nil
}

// metaDecoder reads the binary metadata encoding. The first malformed
// field sets bad; later reads then return zero values.
type metaDecoder struct {
	b   []byte
	bad bool
}

func (d *metaDecoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	// n must also be the minimal length, so the encoding is canonical.
	if n <= 0 || n != uvarintLen(v) {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (d *metaDecoder) bytes() []byte {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *metaDecoder) string() string { return string(d.bytes()) }

func (d *metaDecoder) list() []string {
	n := d.uvarint()
	// Every element takes at least one byte, which bounds the allocation
	// by the input size.
	if d.bad || n > uint64(len(d.b)) {
		d.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	l := make([]string, n)
	for i := range l {
		l[i] = d.string()
	}
	return l
}

func (d *metaDecoder) time() time.Time {
	if d.bad || len(d.b) < 8 {
		d.bad = true
		return time.Time{}
	}
	n := int64(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return time.Unix(0, n).UTC()
}

// metaIndex maintains the secondary indexes the paper's "metadata
// indexing" feature calls for: find all keys of a subject (Art. 15/17/20)
// and all keys processable under a purpose (Art. 21) without scanning the
// keyspace.
//
// The index is internally lock-striped so metadata writes for unrelated
// keys/owners never contend: the primary key→Metadata map is sharded by
// key, the owner and purpose association sets by owner/purpose. Each shard
// lock is held only for the individual map operation. The index therefore
// guarantees memory safety and per-map consistency on its own; compound
// read-modify-write invariants (e.g. "engine value and metadata agree for
// key k") are the caller's job, which Store provides via its key/owner
// stripe locks. Between put's primary-map update and its association
// updates, a reader of a *different* owner/purpose set may briefly miss an
// entry being re-indexed — callers that need a stable owner view hold that
// owner's stripe, which serialises all re-indexing for the owner's keys.
type metaIndex struct {
	meta      []metaShard
	byOwner   []assocShard
	byPurpose []assocShard
}

// metaShard is one stripe of the key→Metadata map.
type metaShard struct {
	mu sync.Mutex
	m  map[string]Metadata
}

// assocShard is one stripe of a string→key-set association index.
type assocShard struct {
	mu sync.Mutex
	m  map[string]map[string]struct{}
}

func newMetaIndex() *metaIndex {
	ix := &metaIndex{
		meta:      make([]metaShard, stripeCount),
		byOwner:   make([]assocShard, stripeCount),
		byPurpose: make([]assocShard, stripeCount),
	}
	for i := 0; i < stripeCount; i++ {
		ix.meta[i].m = make(map[string]Metadata)
		ix.byOwner[i].m = make(map[string]map[string]struct{})
		ix.byPurpose[i].m = make(map[string]map[string]struct{})
	}
	return ix
}

func (ix *metaIndex) metaShardFor(key string) *metaShard {
	return &ix.meta[stripeIndex(key)]
}

func (sh *assocShard) add(name, key string) {
	if name == "" {
		return
	}
	sh.mu.Lock()
	set, ok := sh.m[name]
	if !ok {
		set = make(map[string]struct{})
		sh.m[name] = set
	}
	set[key] = struct{}{}
	sh.mu.Unlock()
}

func (sh *assocShard) remove(name, key string) {
	sh.mu.Lock()
	if set, ok := sh.m[name]; ok {
		delete(set, key)
		if len(set) == 0 {
			delete(sh.m, name)
		}
	}
	sh.mu.Unlock()
}

// keys returns the member keys of name's set, in unspecified order.
func (sh *assocShard) keys(name string) []string {
	sh.mu.Lock()
	set := sh.m[name]
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sh.mu.Unlock()
	return out
}

func (ix *metaIndex) put(key string, m Metadata) {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	old, had := ms.m[key]
	ms.m[key] = m
	ms.mu.Unlock()
	if had {
		if old.Owner == m.Owner && sameStrings(old.Purposes, m.Purposes) {
			return // associations unchanged (an overwrite, an objection)
		}
		ix.unindex(key, old)
	}
	ix.byOwner[stripeIndex(m.Owner)].add(m.Owner, key)
	for _, p := range m.Purposes {
		ix.byPurpose[stripeIndex(p)].add(p, key)
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (ix *metaIndex) get(key string) (Metadata, bool) {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	m, ok := ms.m[key]
	ms.mu.Unlock()
	return m, ok
}

func (ix *metaIndex) del(key string) {
	ms := ix.metaShardFor(key)
	ms.mu.Lock()
	m, ok := ms.m[key]
	delete(ms.m, key)
	ms.mu.Unlock()
	if ok {
		ix.unindex(key, m)
	}
}

func (ix *metaIndex) unindex(key string, m Metadata) {
	if m.Owner != "" {
		ix.byOwner[stripeIndex(m.Owner)].remove(m.Owner, key)
	}
	for _, p := range m.Purposes {
		ix.byPurpose[stripeIndex(p)].remove(p, key)
	}
}

// ownerKeys returns the keys owned by owner, in unspecified order.
func (ix *metaIndex) ownerKeys(owner string) []string {
	return ix.byOwner[stripeIndex(owner)].keys(owner)
}

// ownerKeyCount returns how many keys the index currently attributes to
// owner without materialising the key slice — the O(1) cardinality the
// crypto-shred fast path reports as its erasure count.
func (ix *metaIndex) ownerKeyCount(owner string) int {
	sh := &ix.byOwner[stripeIndex(owner)]
	sh.mu.Lock()
	n := len(sh.m[owner])
	sh.mu.Unlock()
	return n
}

// purposeKeys returns the keys whitelisted for purpose.
func (ix *metaIndex) purposeKeys(purpose string) []string {
	return ix.byPurpose[stripeIndex(purpose)].keys(purpose)
}

// rangeMeta calls fn for every (key, metadata) entry, one shard at a time.
// fn must not call back into the index for the same shard (it may read
// other entries via get). Entries added or removed concurrently may or may
// not be visited — callers that need a stable view hold Store.lockAll.
func (ix *metaIndex) rangeMeta(fn func(key string, m Metadata) bool) {
	for i := range ix.meta {
		sh := &ix.meta[i]
		sh.mu.Lock()
		for k, m := range sh.m {
			if !fn(k, m) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}

// clear empties every shard in place. Unlike swapping in a fresh index,
// clearing keeps the *metaIndex pointer stable, so a live replication
// apply of FLUSHALL is safe against concurrent readers holding the store's
// ix field.
func (ix *metaIndex) clear() {
	for i := 0; i < stripeCount; i++ {
		ix.meta[i].mu.Lock()
		ix.meta[i].m = make(map[string]Metadata)
		ix.meta[i].mu.Unlock()
		ix.byOwner[i].mu.Lock()
		ix.byOwner[i].m = make(map[string]map[string]struct{})
		ix.byOwner[i].mu.Unlock()
		ix.byPurpose[i].mu.Lock()
		ix.byPurpose[i].m = make(map[string]map[string]struct{})
		ix.byPurpose[i].mu.Unlock()
	}
}

func (ix *metaIndex) len() int {
	n := 0
	for i := range ix.meta {
		ix.meta[i].mu.Lock()
		n += len(ix.meta[i].m)
		ix.meta[i].mu.Unlock()
	}
	return n
}
