package gdprkv

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"gdprstore/internal/resp"
)

// args builds a raw argument vector from a command name and strings.
func args(name string, rest ...string) [][]byte {
	out := make([][]byte, 0, len(rest)+1)
	out = append(out, []byte(name))
	for _, a := range rest {
		out = append(out, []byte(a))
	}
	return out
}

// Do sends one command verbatim to the primary and returns the decoded
// reply. It is the escape hatch for commands without a typed helper
// (ACL, COMPACT, COMMAND, ...). Error replies come back as *ServerError.
func (c *Client) Do(ctx context.Context, cmd ...string) (resp.Value, error) {
	if len(cmd) == 0 {
		return resp.Value{}, errors.New("gdprkv: Do: empty command")
	}
	return c.doPrimary(ctx, args(cmd[0], cmd[1:]...))
}

// DoArgs sends one command with raw byte arguments to the primary.
func (c *Client) DoArgs(ctx context.Context, name string, raw ...[]byte) (resp.Value, error) {
	a := make([][]byte, 0, len(raw)+1)
	a = append(a, []byte(name))
	a = append(a, raw...)
	return c.doPrimary(ctx, a)
}

// Ping checks primary liveness.
func (c *Client) Ping(ctx context.Context) error {
	v, err := c.doPrimary(ctx, args("PING"))
	if err != nil {
		return err
	}
	if v.Text() != "PONG" {
		return fmt.Errorf("gdprkv: unexpected PING reply %q", v.Text())
	}
	return nil
}

// --- vanilla surface (baseline engine path) ---

// Set stores a raw key/value on the baseline path. Under WithAutoBatch,
// concurrent Sets coalesce into one MSET per flush window.
func (c *Client) Set(ctx context.Context, key string, value []byte) error {
	if c.batcher != nil {
		return c.batcher.set(ctx, key, value)
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdSET, []byte(key), value)
	_, err := c.doWriteKey(ctx, key, av.a)
	return err
}

// SetEX stores a raw key/value with a TTL in seconds.
func (c *Client) SetEX(ctx context.Context, key string, value []byte, seconds int64) error {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdSET, []byte(key), value, cmdEX, []byte(strconv.FormatInt(seconds, 10)))
	_, err := c.doWriteKey(ctx, key, av.a)
	return err
}

// Get fetches a raw value; ErrNotFound if missing. Replica-routed. Under
// WithAutoBatch, concurrent Gets coalesce into one MGET per flush window.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	if c.batcher != nil {
		return c.batcher.get(ctx, key)
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdGET, []byte(key))
	v, err := c.doReadKey(ctx, key, av.a)
	if err != nil {
		return nil, err
	}
	if v.Null {
		return nil, ErrNotFound
	}
	return v.Str, nil
}

// MSet writes every key/value pair in one MSET command — one round
// trip, one server-side lock acquisition and one AOF record for the
// whole batch. keys and values must have equal length. In cluster mode
// the batch is split per slot (one MSET per slot group, reassembled
// transparently); a cross-node batch is then not atomic — a mid-batch
// failure leaves earlier groups applied and is reported.
func (c *Client) MSet(ctx context.Context, keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("gdprkv: MSet: %d keys, %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	if c.cl != nil {
		return c.msetCluster(ctx, keys, values)
	}
	a := make([][]byte, 0, 1+2*len(keys))
	a = append(a, []byte("MSET"))
	for i, k := range keys {
		a = append(a, []byte(k), values[i])
	}
	_, err := c.doPrimary(ctx, a)
	return err
}

// MGet reads every key in one MGET command. The result is positional; a
// missing key yields a nil entry. Replica-routed.
func (c *Client) MGet(ctx context.Context, keys ...string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if c.cl != nil {
		return c.mgetCluster(ctx, keys)
	}
	v, err := c.doRead(ctx, args("MGET", keys...))
	if err != nil {
		return nil, err
	}
	if len(v.Array) != len(keys) {
		return nil, fmt.Errorf("gdprkv: malformed MGET reply: %d entries for %d keys", len(v.Array), len(keys))
	}
	out := make([][]byte, len(keys))
	for i, e := range v.Array {
		if !e.Null {
			out[i] = e.Str
		}
	}
	return out, nil
}

// Del removes keys, returning how many existed.
func (c *Client) Del(ctx context.Context, keys ...string) (int64, error) {
	if c.cl != nil && len(keys) > 0 {
		return c.delCluster(ctx, keys)
	}
	v, err := c.doPrimary(ctx, args("DEL", keys...))
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Expire sets a TTL in seconds, reporting whether the key existed.
func (c *Client) Expire(ctx context.Context, key string, seconds int64) (bool, error) {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdEXPIRE, []byte(key), []byte(strconv.FormatInt(seconds, 10)))
	v, err := c.doWriteKey(ctx, key, av.a)
	if err != nil {
		return false, err
	}
	return v.Int == 1, nil
}

// TTL returns the TTL in seconds (-1 no TTL, -2 missing). Replica-routed.
func (c *Client) TTL(ctx context.Context, key string) (int64, error) {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdTTL, []byte(key))
	v, err := c.doReadKey(ctx, key, av.a)
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Scan iterates the keyspace; returns keys and the next cursor (0 =
// done). Cursors are positions into one node's sorted keyspace, so the
// whole iteration must run against one node: a client pins every Scan
// to its first replica (primary when none are configured), falling back
// to the primary only when that replica is unreachable — after such a
// fallback, restart from cursor 0 for a complete sweep.
func (c *Client) Scan(ctx context.Context, cursor uint64, match string, count int) ([]string, uint64, error) {
	v, err := c.doScan(ctx, args("SCAN",
		strconv.FormatUint(cursor, 10), "MATCH", match, "COUNT", strconv.Itoa(count)))
	if err != nil {
		return nil, 0, err
	}
	if len(v.Array) != 2 {
		return nil, 0, errors.New("gdprkv: malformed SCAN reply")
	}
	next, err := strconv.ParseUint(v.Array[0].Text(), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("gdprkv: bad SCAN cursor: %w", err)
	}
	keys := make([]string, len(v.Array[1].Array))
	for i, k := range v.Array[1].Array {
		keys[i] = k.Text()
	}
	return keys, next, nil
}

// Info returns the primary's INFO report; section may be empty for the
// full report, or one of "gdprstore", "replication", "commandstats".
// Primary-routed because the report is node-local state; dial a
// dedicated client per node to inspect replicas.
func (c *Client) Info(ctx context.Context, section string) (string, error) {
	a := args("INFO")
	if section != "" {
		a = append(a, []byte(section))
	}
	v, err := c.doPrimary(ctx, a)
	if err != nil {
		return "", err
	}
	return v.Text(), nil
}

// ReplicaOf makes the connected server replicate from the primary at
// host:port (operator command).
func (c *Client) ReplicaOf(ctx context.Context, host, port string) error {
	_, err := c.doPrimary(ctx, args("REPLICAOF", host, port))
	return err
}

// PromoteToPrimary stops the connected server's replication and makes
// it writable (REPLICAOF NO ONE).
func (c *Client) PromoteToPrimary(ctx context.Context) error {
	_, err := c.doPrimary(ctx, args("REPLICAOF", "NO", "ONE"))
	return err
}

// --- GDPR surface (compliance path) ---

// PutOptions carries a record's GDPR metadata for GPut and GMPut.
type PutOptions struct {
	// Owner is the data subject the record belongs to.
	Owner string
	// Purposes are the consented processing purposes.
	Purposes []string
	// TTL is the retention bound; rounded down to whole seconds.
	TTL time.Duration
	// Origin records where the data was collected (Art. 15(1)(g)).
	Origin string
	// Location constrains the storage region (Art. 46).
	Location string
	// SharedWith lists third-party recipients (Art. 15(1)(c)).
	SharedWith []string
	// AutoDecide flags automated decision-making (Art. 22).
	AutoDecide bool
}

// optionArgs renders the metadata as GPUT/GMPUT option tokens.
func (o PutOptions) optionArgs() [][]byte {
	a, _ := o.appendOptionArgs(nil, nil)
	return a
}

// appendOptionArgs appends the metadata's GPUT/GMPUT option tokens to a.
// Keywords are shared constants; the variable tokens (owner, joined
// lists, the TTL digits) are appended to scratch and sliced from it. A
// token stays valid if a later append moves scratch, since it keeps the
// old array; with a pooled a and scratch that have grown once, the call
// allocates nothing.
func (o PutOptions) appendOptionArgs(a [][]byte, scratch []byte) ([][]byte, []byte) {
	token := func(kw []byte, start int) {
		a = append(a, kw, scratch[start:len(scratch):len(scratch)])
	}
	if o.Owner != "" {
		n := len(scratch)
		scratch = append(scratch, o.Owner...)
		token(optOWNER, n)
	}
	if len(o.Purposes) > 0 {
		n := len(scratch)
		scratch = appendJoined(scratch, o.Purposes)
		token(optPURPOSES, n)
	}
	if secs := int64(o.TTL / time.Second); secs > 0 {
		n := len(scratch)
		scratch = strconv.AppendInt(scratch, secs, 10)
		token(optTTL, n)
	}
	if o.Origin != "" {
		n := len(scratch)
		scratch = append(scratch, o.Origin...)
		token(optORIGIN, n)
	}
	if o.Location != "" {
		n := len(scratch)
		scratch = append(scratch, o.Location...)
		token(optLOCATION, n)
	}
	if len(o.SharedWith) > 0 {
		n := len(scratch)
		scratch = appendJoined(scratch, o.SharedWith)
		token(optSHAREDWITH, n)
	}
	if o.AutoDecide {
		a = append(a, optAUTODECIDE)
	}
	return a, scratch
}

// appendJoined appends strings.Join(l, ",") to dst.
func appendJoined(dst []byte, l []string) []byte {
	for i, s := range l {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s...)
	}
	return dst
}

// GPut writes personal data with its metadata. Under WithAutoBatch,
// concurrent GPuts sharing identical options coalesce into one GMPUT per
// flush window.
func (c *Client) GPut(ctx context.Context, key string, value []byte, opts PutOptions) error {
	if c.batcher != nil {
		return c.batcher.gput(ctx, key, value, opts)
	}
	av := argvGet()
	defer argvPut(av)
	av.scratch = append(av.scratch, key...)
	av.a = append(av.a, cmdGPUT, av.scratch[:len(key):len(key)], value)
	av.a, av.scratch = opts.appendOptionArgs(av.a, av.scratch)
	_, err := c.doWriteKey(ctx, key, av.a)
	return err
}

// GMPut writes a batch of personal-data records sharing one metadata
// set in a single GMPUT command: one lock, one AOF append, one audit
// record for the whole batch. In cluster mode the batch is split per
// slot (owner-tagged keys stay one group); a mid-batch failure leaves
// earlier slot groups applied and is reported.
func (c *Client) GMPut(ctx context.Context, keys []string, values [][]byte, opts PutOptions) error {
	if len(keys) != len(values) {
		return fmt.Errorf("gdprkv: GMPut: %d keys, %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	if c.cl != nil {
		return c.gmputCluster(ctx, keys, values, opts)
	}
	a := make([][]byte, 0, 2+2*len(keys)+14)
	a = append(a, []byte("GMPUT"), []byte(strconv.Itoa(len(keys))))
	for i, k := range keys {
		a = append(a, []byte(k), values[i])
	}
	a = append(a, opts.optionArgs()...)
	_, err := c.doPrimary(ctx, a)
	return err
}

// GGet reads personal data under the client's actor and purpose.
// ErrNotFound if missing. Replica-routed. Under WithAutoBatch, concurrent
// GGets coalesce into one GMGET per flush window.
func (c *Client) GGet(ctx context.Context, key string) ([]byte, error) {
	if c.batcher != nil {
		return c.batcher.gget(ctx, key)
	}
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdGGET, []byte(key))
	v, err := c.doReadKey(ctx, key, av.a)
	if err != nil {
		return nil, err
	}
	if v.Null {
		return nil, ErrNotFound
	}
	return v.Str, nil
}

// BatchValue is one positional result of GMGet: the value on success,
// or the per-key error (ErrNotFound for a missing key, a *ServerError
// carrying the DENIED/PURPOSEDENIED/ERASED/... class for a refused one).
type BatchValue struct {
	Value []byte
	Err   error
}

// GMGet reads a batch of personal-data records in one GMGET command. A
// refused or missing key is reported in its slot without failing the
// rest of the batch. Replica-routed.
func (c *Client) GMGet(ctx context.Context, keys ...string) ([]BatchValue, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if c.cl != nil {
		return c.gmgetCluster(ctx, keys)
	}
	v, err := c.doRead(ctx, args("GMGET", keys...))
	if err != nil {
		return nil, err
	}
	if len(v.Array) != len(keys) {
		return nil, fmt.Errorf("gdprkv: malformed GMGET reply: %d entries for %d keys", len(v.Array), len(keys))
	}
	out := make([]BatchValue, len(keys))
	for i, e := range v.Array {
		switch {
		case e.IsError():
			out[i].Err = wireError(e.Text())
		case e.Null:
			out[i].Err = ErrNotFound
		default:
			out[i].Value = e.Str
		}
	}
	return out, nil
}

// GDel deletes personal data.
func (c *Client) GDel(ctx context.Context, key string) error {
	av := argvGet()
	defer argvPut(av)
	av.a = append(av.a, cmdGDEL, []byte(key))
	_, err := c.doWriteKey(ctx, key, av.a)
	return err
}

// GetUser returns all key/value pairs of a data subject (Art. 15 right
// of access). Rights operations are primary-routed: their answers must
// reflect the authoritative dataset, not a replica's convergence lag.
func (c *Client) GetUser(ctx context.Context, owner string) (map[string][]byte, error) {
	v, err := c.doRights(ctx, owner, args("GETUSER", owner))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(v.Array)/2)
	for i := 0; i+1 < len(v.Array); i += 2 {
		out[v.Array[i].Text()] = v.Array[i+1].Str
	}
	return out, nil
}

// ExportUser returns the Art. 20 portability payload. Primary-routed.
func (c *Client) ExportUser(ctx context.Context, owner string) ([]byte, error) {
	v, err := c.doRights(ctx, owner, args("EXPORTUSER", owner))
	if err != nil {
		return nil, err
	}
	return v.Str, nil
}

// ForgetUser erases a data subject (Art. 17), returning the number of
// records erased on the primary; erasure propagates to replicas through
// the replication stream.
func (c *Client) ForgetUser(ctx context.Context, owner string) (int64, error) {
	v, err := c.doRights(ctx, owner, args("FORGETUSER", owner))
	if err != nil {
		return 0, err
	}
	return v.Int, nil
}

// Object records an Art. 21 objection to a processing purpose.
func (c *Client) Object(ctx context.Context, owner, purpose string) error {
	_, err := c.doRights(ctx, owner, args("OBJECT", owner, purpose))
	return err
}

// Unobject withdraws an Art. 21 objection.
func (c *Client) Unobject(ctx context.Context, owner, purpose string) error {
	_, err := c.doRights(ctx, owner, args("UNOBJECT", owner, purpose))
	return err
}
