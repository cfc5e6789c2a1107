package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"time"
)

// valueSize is the size of every generated record value.
const valueSize = 256

// opKind is the type of one generated request.
type opKind uint8

const (
	opGPut opKind = iota
	opGGet
	opGetUser
	opExportUser
	opForget
)

var opNames = [...]string{"gput", "gget", "getuser", "exportuser", "forgetuser"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. Everything the server receives is derived
// from these fields and the run seed: keys, owners, values and TTLs.
type op struct {
	kind    opKind
	subject int // index into the live subjects, or the churn pool for opForget
	record  int
	version int64         // opGPut: the version this write installs
	ttl     time.Duration // opGPut: whole seconds
	due     time.Duration // open-loop streams: offset of the send time from the stream start
}

// encode appends a fixed-width binary form of o; determinism tests compare
// these bytes across generator instances.
func (o op) encode(b []byte) []byte {
	b = append(b, byte(o.kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.subject))
	b = binary.LittleEndian.AppendUint32(b, uint32(o.record))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.version))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.ttl))
	return binary.LittleEndian.AppendUint64(b, uint64(o.due))
}

// Names of subjects and keys. Live and churn subjects are disjoint.
func liveSubject(s int) string  { return "s" + strconv.Itoa(s) }
func churnSubject(s int) string { return "c" + strconv.Itoa(s) }
func recordKey(owner string, r int) string {
	return owner + ":r" + strconv.Itoa(r)
}

// rng is splitmix64: tiny, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf draws ranks 0..n-1 with YCSB's zipfian constant (Gray et al.,
// "Quickly generating billion-record synthetic databases").
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half2theta float64
}

const zipfTheta = 0.99

func newZipf(n int) *zipf {
	z := &zipf{n: n, theta: zipfTheta}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	zeta2 := 1 + 1/math.Pow(2, z.theta)
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta2/z.zetan)
	z.half2theta = 1 + math.Pow(0.5, z.theta)
	return z
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half2theta {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// scrambled maps a zipfian rank onto an item by FNV-1a hashing, as YCSB's
// ScrambledZipfianGenerator does, so popular subjects are spread over the
// key space instead of clustering at the low indexes.
func (z *zipf) scrambled(r *rng) int {
	k := uint64(z.rank(r))
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= k & 0xff
		h *= 1099511628211
		k >>= 8
	}
	return int(h % uint64(z.n))
}

// dataStream generates one data-path connection's closed-loop GGET/GPUT
// stream, half reads and half writes. Connection c of w.dataConns writes
// only the records r with r%w.dataConns == c, so each key has exactly one
// writer and the version a write installs is known at generation time;
// reads cover every record.
type dataStream struct {
	r        *rng
	z        *zipf
	w        *workload
	conn     int
	versions map[int]int64 // key index -> last generated version
}

func newDataStream(seed uint64, w *workload, z *zipf, conn int) *dataStream {
	return &dataStream{r: newRNG(seed, uint64(w.id), 1, uint64(conn)), z: z, w: w, conn: conn, versions: map[int]int64{}}
}

func (g *dataStream) next() op {
	w := g.w
	s := g.z.scrambled(g.r)
	if g.r.float() < 0.5 {
		return op{kind: opGGet, subject: s, record: g.r.intn(w.records)}
	}
	owned := (w.records - g.conn + w.dataConns - 1) / w.dataConns
	rec := g.conn + w.dataConns*g.r.intn(owned)
	ttl := w.longTTL
	if w.shortTTLFrac > 0 && g.r.float() < w.shortTTLFrac {
		ttl = w.shortTTL
	}
	k := s*w.records + rec
	v := g.versions[k]
	if v == 0 {
		v = preloadVersion
	}
	v++
	g.versions[k] = v
	return op{kind: opGPut, subject: s, record: rec, version: v, ttl: ttl}
}

// preloadVersion is the version every preloaded record carries.
const preloadVersion = 1

// rightsStream generates the controller's rights requests. As an open loop
// (rate > 0) request i is due at i/rate from the stream start; GETUSER and
// EXPORTUSER target live subjects through the zipfian, and FORGETUSER takes
// the next unused churn-pool subject, so each is forgotten at most once.
type rightsStream struct {
	r          *rng
	z          *zipf
	rate       float64 // requests per second; 0 = closed loop
	forgetFrac float64
	churn      int // churn-pool subjects available
	nextChurn  int
	at         time.Duration
}

// getUserShare is GETUSER's share of the rights reads, EXPORTUSER taking
// the rest. The two form separate latency modes; an even split would put
// the joined median in the gap between them, where it swings with the
// draw, so GETUSER takes two thirds and the median falls inside its mode.
const getUserShare = 2.0 / 3

func newRightsStream(r *rng, z *zipf, rate, forgetFrac float64, churn int) *rightsStream {
	return &rightsStream{r: r, z: z, rate: rate, forgetFrac: forgetFrac, churn: churn}
}

func (g *rightsStream) next() op {
	var o op
	u := g.r.float()
	switch {
	case u < g.forgetFrac && g.nextChurn < g.churn:
		o = op{kind: opForget, subject: g.nextChurn}
		g.nextChurn++
	case u < g.forgetFrac+(1-g.forgetFrac)*getUserShare:
		o = op{kind: opGetUser, subject: g.z.scrambled(g.r)}
	default:
		o = op{kind: opExportUser, subject: g.z.scrambled(g.r)}
	}
	if g.rate > 0 {
		g.at += time.Duration(float64(time.Second) / g.rate)
		o.due = g.at
	}
	return o
}

// makeValue builds the 256-byte value of (key, version): an 8-hex-digit
// CRC-32 of the rest, then "|key|version|", then seeded filler. Every
// reply can therefore be checked for integrity, for belonging to the key
// it was read under, and for its version.
func makeValue(seed uint64, key string, version int64) []byte {
	b := make([]byte, valueSize)
	body := b[:9]
	body[8] = '|'
	body = append(body, key...)
	body = append(body, '|')
	body = strconv.AppendInt(body, version, 10)
	body = append(body, '|')
	if len(body) > valueSize {
		panic("perfbench: key too long for value header")
	}
	r := newRNG(seed, fnv64(key), uint64(version))
	for i := len(body); i < valueSize; i++ {
		body = append(body, 'a'+byte(r.next()%26))
	}
	copy(b, body)
	sum := crc32.ChecksumIEEE(b[8:])
	copy(b[:8], fmt.Sprintf("%08x", sum))
	return b
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decodeValue checks a value's checksum and returns the key and version it
// encodes.
func decodeValue(b []byte) (key string, version int64, err error) {
	if len(b) != valueSize {
		return "", 0, fmt.Errorf("value length %d, want %d", len(b), valueSize)
	}
	want, err := strconv.ParseUint(string(b[:8]), 16, 32)
	if err != nil || b[8] != '|' {
		return "", 0, fmt.Errorf("malformed value header %q", b[:9])
	}
	if got := crc32.ChecksumIEEE(b[8:]); uint64(got) != want {
		return "", 0, fmt.Errorf("checksum mismatch: header %08x, body %08x", want, got)
	}
	rest := b[9:]
	i := bytes.IndexByte(rest, '|')
	if i < 0 {
		return "", 0, fmt.Errorf("value has no key terminator")
	}
	key = string(rest[:i])
	rest = rest[i+1:]
	j := bytes.IndexByte(rest, '|')
	if j < 0 {
		return "", 0, fmt.Errorf("value has no version terminator")
	}
	version, err = strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("value version: %w", err)
	}
	return key, version, nil
}
