package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gdprstore/internal/clock"
	"gdprstore/internal/store"
)

// seedMetadata is a fully populated record, the shape fuzz seeds start from.
var seedMetadata = Metadata{
	Owner: "alice", Purposes: []string{"billing", "support"}, Objections: []string{"marketing"},
	Origin: "signup", SharedWith: []string{"psp"}, Location: "eu",
	AutomatedDecisions: true,
	Expiry:             time.Unix(1_003_600, 5).UTC(), Created: time.Unix(1_000_000, 0).UTC(),
	KeyEpoch: 300,
}

// FuzzDecodeMetadata: arbitrary bytes never panic the metadata decoder,
// standalone or inside a record with a deadline (dl Unix nanoseconds, 0
// for none), and every binary encoding it accepts is canonical —
// re-encoding the decoded metadata reproduces the input exactly. (Input
// starting with '{' takes the JSON path of older journals, which only has
// to not panic.)
func FuzzDecodeMetadata(f *testing.F) {
	dl := time.Unix(1_003_600, 0).UTC()
	f.Add(appendMetadata(nil, seedMetadata, time.Time{}), int64(0))
	f.Add(appendMetadata(nil, Metadata{}, time.Time{}), int64(0))
	f.Add(appendMetadata(nil, Metadata{Owner: "bob", Purposes: []string{"*"}}, time.Time{}), int64(0))
	f.Add(appendMetadata(nil, Metadata{Owner: "bob", Expiry: dl}, dl), dl.UnixNano())
	f.Add(appendMetadata(nil, seedMetadata, dl), dl.UnixNano())
	j, _ := json.Marshal(seedMetadata)
	f.Add(j, int64(0))
	f.Add([]byte{metaVersion, 0, 0x80, 0x00, 0, 0, 0, 0, 0, 0}, int64(0)) // non-minimal varint
	f.Fuzz(func(t *testing.T, b []byte, dl int64) {
		var deadline time.Time
		if dl != 0 {
			deadline = time.Unix(0, dl).UTC()
		}
		m, err := decodeMetadata(b, deadline)
		if err != nil || (len(b) > 0 && b[0] == '{') {
			return
		}
		if re := appendMetadata(nil, m, deadline); !bytes.Equal(re, b) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", b, re)
		}
	})
}

// fuzzRecordNames are the journal record types applyRecord interprets.
var fuzzRecordNames = []string{
	opPut, opPutBatch, opMeta, opMetaBatch, opObject, opUnobj, opKey, opShred, opReinst, opForget,
	"SET", "SETEX", "MSET", "MSETEX", "DEL", "EXPIREAT", "PERSIST", "FLUSHALL", "READ",
}

// encodeFuzzRecord renders one record in FuzzApplyRecord's input format:
// a name index byte, an argument count byte, then each argument as a
// length byte and its bytes.
func encodeFuzzRecord(dst []byte, name string, args ...[]byte) []byte {
	for i, n := range fuzzRecordNames {
		if n == name {
			dst = append(dst, byte(i))
		}
	}
	dst = append(dst, byte(len(args)))
	for _, a := range args {
		dst = append(dst, byte(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// decodeFuzzRecords splits fuzz input into journal records (see
// encodeFuzzRecord); a short tail ends the sequence.
func decodeFuzzRecords(b []byte, fn func(name string, args [][]byte)) {
	for len(b) >= 2 {
		name := fuzzRecordNames[int(b[0])%len(fuzzRecordNames)]
		argc := int(b[1]) % 8
		b = b[2:]
		args := make([][]byte, 0, argc)
		for i := 0; i < argc && len(b) > 0; i++ {
			n := int(b[0])
			b = b[1:]
			if n > len(b) {
				n = len(b)
			}
			args = append(args, b[:n:n])
			b = b[n:]
		}
		fn(name, args)
	}
}

// FuzzApplyRecord: an arbitrary sequence of journal records never panics
// replay, and after replay's ghost sweep the metadata index is
// consistent — every entry has an engine key, and the owner and purpose
// indexes list exactly the entries that name them.
func FuzzApplyRecord(f *testing.F) {
	deadline := time.Unix(1_003_600, 0).UTC()
	dl := store.AppendDeadline(nil, deadline)
	meta := appendMetadata(nil, seedMetadata, deadline)
	legacy, _ := json.Marshal(Metadata{Owner: "bob", Purposes: []string{"billing"}})
	var seed []byte
	seed = encodeFuzzRecord(seed, opPut, []byte("k1"), []byte("v1"), dl, meta)
	seed = encodeFuzzRecord(seed, opPutBatch, dl, meta, []byte("k2"), []byte("v2"), []byte("k3"), []byte("v3"))
	seed = encodeFuzzRecord(seed, opPut, []byte("k4"), []byte("v4"), nil, nil)
	seed = encodeFuzzRecord(seed, "SETEX", []byte("k5"), []byte(deadline.Format(time.RFC3339Nano)), []byte("v5"))
	seed = encodeFuzzRecord(seed, opMeta, []byte("k5"), legacy)
	seed = encodeFuzzRecord(seed, opMetaBatch, legacy, []byte("k6"), []byte("k1"))
	seed = encodeFuzzRecord(seed, opObject, []byte("alice"), []byte("support"))
	seed = encodeFuzzRecord(seed, "DEL", []byte("k2"))
	seed = encodeFuzzRecord(seed, opForget, []byte("alice"))
	f.Add(seed)
	f.Add(encodeFuzzRecord(nil, opPut, []byte("k"), []byte("v"), []byte{1, 2, 3}, meta))
	f.Add(encodeFuzzRecord(encodeFuzzRecord(nil, opShred, []byte("alice"), []byte("2")), opPut, []byte("k"), []byte("v"), dl, meta))
	f.Add(encodeFuzzRecord(nil, "FLUSHALL"))
	// Same owner, new purposes: the purpose index must follow.
	repurposed := appendMetadata(nil, Metadata{Owner: "alice", Purposes: []string{"analytics"}}, time.Time{})
	f.Add(encodeFuzzRecord(encodeFuzzRecord(nil, opPut, []byte("k"), []byte("v"), dl, meta), opMeta, []byte("k"), repurposed))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Open(Config{
			Compliant: true, Capability: CapabilityFull,
			Clock:    clock.NewVirtual(time.Unix(1_000_000, 0)),
			Envelope: true, MasterKey: bytes.Repeat([]byte{7}, 32),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		decodeFuzzRecords(b, func(name string, args [][]byte) {
			_ = s.applyRecord(name, args)
		})
		s.sweepReplayGhosts()
		checkIndexConsistent(t, s)
	})
}

// checkIndexConsistent asserts the metadata index agrees with the engine
// and with itself.
func checkIndexConsistent(t *testing.T, s *Store) {
	t.Helper()
	type assoc struct{ name, key string }
	want := map[assoc]bool{}
	s.ix.rangeMeta(func(k string, m Metadata) bool {
		if !s.db.Exists(k) {
			t.Errorf("index entry %q has no engine key", k)
		}
		if m.Owner != "" {
			want[assoc{"owner:" + m.Owner, k}] = true
		}
		for _, p := range m.Purposes {
			if p != "" {
				want[assoc{"purpose:" + p, k}] = true
			}
		}
		return true
	})
	got := map[assoc]bool{}
	collect := func(prefix string, shards []assocShard) {
		for i := range shards {
			for name, set := range shards[i].m {
				for k := range set {
					got[assoc{prefix + name, k}] = true
				}
			}
		}
	}
	collect("owner:", s.ix.byOwner)
	collect("purpose:", s.ix.byPurpose)
	for a := range want {
		if !got[a] {
			t.Errorf("index entry %q missing from %s", a.key, a.name)
		}
	}
	for a := range got {
		if !want[a] {
			t.Errorf("%s lists %q, which no index entry names", a.name, a.key)
		}
	}
}
