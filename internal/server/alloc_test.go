package server

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"gdprstore/internal/aof"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
)

// commandPathAllocs measures the server's allocations for one command on
// the benchmark's data-path configuration (full capability, eventual
// timing, AOF fsynced every second, file audit trail): parse from the
// read buffer, registry and middleware, the compliance layer, engine,
// journal and audit, and the reply encode. The network is left out, so
// the figure is the server's alone. The audit worker runs concurrently,
// so its per-record allocations land in the average too.
func commandPathAllocs(t *testing.T, cmd ...string) float64 {
	t.Helper()
	dir := t.TempDir()
	cfg := core.EventualFull(filepath.Join(dir, "audit.log"))
	cfg.AOFPath = filepath.Join(dir, "data.aof")
	cfg.AOFSync = core.Ptr(aof.SyncEverySec)
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	sess := &connState{}
	for _, setup := range [][]string{
		{"ACL", "ADDPRINCIPAL", "ctl", "controller"}, {"AUTH", "ctl"}, {"PURPOSE", "billing"},
		{"GPUT", "alice:r1", "0123456789abcdef", "OWNER", "alice", "PURPOSES", "billing", "TTL", "3600"},
	} {
		args := make([][]byte, len(setup))
		for i, a := range setup {
			args[i] = []byte(a)
		}
		if v := srv.execute(sess, args); v.IsError() {
			t.Fatalf("%v: %s", setup, v.Str)
		}
	}

	const runs = 2000
	var wire bytes.Buffer
	enc := resp.NewWriter(&wire)
	for i := 0; i <= runs; i++ {
		if err := enc.WriteCommand(cmd...); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(&wire)
	w := resp.NewWriter(io.Discard)
	return testing.AllocsPerRun(runs, func() {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		v := srv.execute(sess, args)
		if v.IsError() {
			t.Fatalf("%s: %s", cmd[0], v.Str)
		}
		if err := w.WriteValue(v); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCommandPathAllocs pins the server-side allocation counts of one
// GGET and one GPUT (owner, one purpose, TTL) at their current values, so
// a change that adds allocations to the request path fails here.
func TestCommandPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		cmd     []string
		ceiling float64
	}{
		{[]string{"GGET", "alice:r1"}, 5},
		{[]string{"GPUT", "alice:r1", "0123456789abcdef", "OWNER", "alice", "PURPOSES", "billing", "TTL", "3600"}, 9},
	} {
		if got := commandPathAllocs(t, tc.cmd...); got > tc.ceiling {
			t.Errorf("%s allocates %.1f objects per command, want <= %.0f", tc.cmd[0], got, tc.ceiling)
		} else {
			t.Logf("%s: %.1f allocs per command", tc.cmd[0], got)
		}
	}
}

// TestUpperTokenMatchesToUpper pins the allocation-free command and
// option lookup to strings.ToUpper's folding, including the non-ASCII
// letters that fold onto ASCII keywords ("ſet" is SET to ToUpper).
func TestUpperTokenMatchesToUpper(t *testing.T) {
	for _, tok := range []string{
		"", "get", "GGet", "gput", "PURPOSES", "ttl", "x1-_:", "ſet", "ıd", "é",
		"a-token-longer-than-the-stack-buffer-of-32-bytes",
	} {
		var buf [tokenBufLen]byte
		if got, want := string(upperToken(&buf, []byte(tok))), strings.ToUpper(tok); got != want {
			t.Errorf("upperToken(%q) = %q, want %q", tok, got, want)
		}
	}
}
