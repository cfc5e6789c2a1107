package audit

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// jsonAlphabet mixes the bytes encoding/json treats specially — HTML
// characters, quotes and backslashes, every control byte class, U+2028 and
// U+2029, multi-byte runes, and bytes that are not valid UTF-8 — with
// plain ASCII.
var jsonAlphabet = []string{
	"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/",
	"\x00", "\x01", "\x07", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x1f", "\x7f",
	"\u2028", "\u2029", "é", "€", "😀", "\ufffd",
	"\xff", "\xc3", "\xe2\x82", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func randJSONString(rng *rand.Rand) string {
	if rng.Intn(5) == 0 {
		return ""
	}
	var b strings.Builder
	for n := rng.Intn(12); n >= 0; n-- {
		b.WriteString(jsonAlphabet[rng.Intn(len(jsonAlphabet))])
	}
	return b.String()
}

func randTime(rng *rand.Rand) time.Time {
	switch rng.Intn(6) {
	case 0:
		return time.Time{}
	case 1: // outside the years json.Marshal accepts
		return time.Date(10000+rng.Intn(100), 1, 1, 0, 0, 0, 0, time.UTC)
	case 2: // negative years
		return time.Date(-rng.Intn(100)-1, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	t := time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9))
	switch rng.Intn(4) {
	case 0:
		return t.UTC()
	case 1:
		return t // local, with a monotonic reading when it came from Now
	case 2: // offsets with minutes, seconds, and out-of-range hours
		offs := []int{3600, -5 * 3600, 5*3600 + 1800, 45, -(9*3600 + 30*60 + 15), 24 * 3600, -25 * 3600}
		return t.In(time.FixedZone("x", offs[rng.Intn(len(offs))]))
	}
	return time.Now()
}

// TestAppendRecordJSONMatchesMarshal is the property the trail format
// rests on: the hand-written appender emits exactly json.Marshal's bytes,
// and declines exactly the records json.Marshal refuses.
func TestAppendRecordJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(20190516))
	outcomes := []Outcome{OutcomeOK, OutcomeDenied, OutcomeMissing, OutcomeError, "", Outcome("<odd>\u2028")}
	var buf []byte
	for i := 0; i < 20000; i++ {
		r := Record{
			Seq:     rng.Uint64() >> uint(rng.Intn(64)),
			Time:    randTime(rng),
			Actor:   randJSONString(rng),
			Op:      randJSONString(rng),
			Key:     randJSONString(rng),
			Owner:   randJSONString(rng),
			Purpose: randJSONString(rng),
			Outcome: outcomes[rng.Intn(len(outcomes))],
			Detail:  randJSONString(rng),
		}
		want, werr := json.Marshal(r)
		var ok bool
		buf, ok = appendRecordJSON(buf[:0], r)
		if ok != (werr == nil) {
			t.Fatalf("record %+v: appender ok=%v, json.Marshal err=%v", r, ok, werr)
		}
		if ok && !bytes.Equal(buf, want) {
			t.Fatalf("record %+v:\n got %s\nwant %s", r, buf, want)
		}
	}
}

// TestEmitLineMatchesMarshal drives the worker's own serialization: a
// record whose every string needs escaping reaches the sink as
// json.Marshal would have written it.
func TestEmitLineMatchesMarshal(t *testing.T) {
	sink := &captureSink{}
	tr, err := Open(Options{ExtraSinks: []Sink{sink}, Mode: SyncEveryOp})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	odd := "<a&b>\u2028\u2029\x01\b\f\xff\"\\"
	rec, err := tr.Append(Record{Actor: odd, Op: "GET", Key: odd, Owner: odd, Purpose: odd, Outcome: OutcomeOK, Detail: odd})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.text(); got != string(want)+"\n" {
		t.Fatalf("sink line:\n got %q\nwant %q", got, string(want)+"\n")
	}
}
