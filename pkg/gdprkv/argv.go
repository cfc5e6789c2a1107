package gdprkv

import "sync"

// Pre-rendered command names for the hot scalar paths, so building an
// argument vector never re-converts a constant string per call.
var (
	cmdGET    = []byte("GET")
	cmdSET    = []byte("SET")
	cmdEX     = []byte("EX")
	cmdDEL    = []byte("DEL")
	cmdTTL    = []byte("TTL")
	cmdEXPIRE = []byte("EXPIRE")
	cmdGPUT   = []byte("GPUT")
	cmdGGET   = []byte("GGET")
	cmdGDEL   = []byte("GDEL")

	optOWNER      = []byte("OWNER")
	optPURPOSES   = []byte("PURPOSES")
	optTTL        = []byte("TTL")
	optORIGIN     = []byte("ORIGIN")
	optLOCATION   = []byte("LOCATION")
	optSHAREDWITH = []byte("SHAREDWITH")
	optAUTODECIDE = []byte("AUTODECIDE")
)

// argvBox is a reusable [][]byte argument vector. The hot scalar commands
// (Get/Set/GGet/GPut/...) check one out, build their command in place,
// run the call, and return it — the per-call slice-header allocation
// conn.do used to force is gone. Safe because the write path consumes the
// arguments before the routed call returns; nothing retains them. scratch
// backs the arguments a call renders itself (key bytes, option tokens).
type argvBox struct {
	a       [][]byte
	scratch []byte
}

// maxPooledScratch keeps one call with huge keys or options from pinning
// a large buffer in the pool.
const maxPooledScratch = 4 << 10

var argvPool = sync.Pool{
	New: func() any { return &argvBox{a: make([][]byte, 0, 12)} },
}

func argvGet() *argvBox { return argvPool.Get().(*argvBox) }

func argvPut(b *argvBox) {
	// Drop the element references so a pooled vector cannot pin caller
	// payloads (values can be large) past the call that used them.
	for i := range b.a {
		b.a[i] = nil
	}
	b.a = b.a[:0]
	b.scratch = b.scratch[:0]
	if cap(b.scratch) > maxPooledScratch {
		b.scratch = nil
	}
	argvPool.Put(b)
}
