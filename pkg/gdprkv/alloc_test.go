package gdprkv_test

import (
	"bytes"
	"net"
	"strconv"
	"testing"
	"time"

	"gdprstore/pkg/gdprkv"
)

// okServer answers PING with +PONG and every other command with +OK. It frames commands with a
// fixed, reused buffer, so it allocates nothing per command itself and an
// AllocsPerRun around a client call counts the client's allocations.
func okServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveOK(c)
		}
	}()
	return ln.Addr().String()
}

var (
	okReply   = []byte("+OK\r\n")
	pongReply = []byte("+PONG\r\n")
	cmdPING   = []byte("PING")
)

func serveOK(c net.Conn) {
	defer c.Close()
	acc := make([]byte, 0, 64<<10)
	var rd [16 << 10]byte
	for {
		n, err := c.Read(rd[:])
		if err != nil {
			return
		}
		acc = append(acc, rd[:n]...)
		for {
			end := commandEnd(acc)
			if end == 0 {
				break
			}
			reply := okReply
			if bytes.Contains(acc[:end], cmdPING) {
				reply = pongReply
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
			acc = acc[:copy(acc, acc[end:])]
		}
	}
}

// commandEnd returns the length of the complete RESP command at the start
// of b, or 0 if it is not complete yet.
func commandEnd(b []byte) int {
	line := func(pos int) (int64, int) {
		i := bytes.IndexByte(b[pos:], '\n')
		if i < 2 {
			return 0, 0
		}
		n, err := strconv.ParseInt(string(b[pos+1:pos+i-1]), 10, 64)
		if err != nil {
			return 0, 0
		}
		return n, pos + i + 1
	}
	argc, pos := line(0)
	if pos == 0 {
		return 0
	}
	for ; argc > 0; argc-- {
		if pos >= len(b) {
			return 0
		}
		l, next := line(pos)
		if next == 0 || next+int(l)+2 > len(b) {
			return 0
		}
		pos = next + int(l) + 2
	}
	return pos
}

// TestGPutAllocs pins the SDK's share of a GPUT carrying an owner, a
// purpose list and a TTL: the option tokens and the key bytes are
// rendered into the pooled argument vector's scratch buffer, so the
// call's only allocations are outside the argument vector (the one the
// reply read makes).
func TestGPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled argument vectors at random")
	}
	c, err := gdprkv.Dial(ctxb(), okServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opts := gdprkv.PutOptions{Owner: "alice", Purposes: []string{"billing", "support"}, TTL: time.Hour}
	val := []byte("0123456789abcdef")
	allocs := testing.AllocsPerRun(2000, func() {
		if err := c.GPut(ctxb(), "alice:r1", val, opts); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1
	if allocs > ceiling {
		t.Fatalf("GPut allocates %.1f objects/op, want <= %d", allocs, ceiling)
	}
}
