package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"gdprstore/pkg/gdprkv"
)

// target is the set of requests the load generator sends. The benchmark
// drives the server through sdkTarget; the self-tests substitute an
// in-memory fake to show the oracle rejects wrong replies.
type target interface {
	GPut(ctx context.Context, key string, value []byte, owner string, ttl time.Duration) error
	GMPut(ctx context.Context, keys []string, values [][]byte, owner string, ttl time.Duration) error
	// GGet reports found=false for a key the server does not hold.
	GGet(ctx context.Context, key string) (value []byte, found bool, err error)
	GMGet(ctx context.Context, keys []string) (values [][]byte, found []bool, err error)
	GetUser(ctx context.Context, owner string) (map[string][]byte, error)
	// ExportUser returns the Article 20 portability payload.
	ExportUser(ctx context.Context, owner string) ([]byte, error)
	ForgetUser(ctx context.Context, owner string) (int64, error)
}

// dataPurpose is the processing purpose every generated record is written
// under and every data-path connection declares.
const dataPurpose = "billing"

// sdkTarget sends requests through the public SDK on one connection.
type sdkTarget struct{ c *gdprkv.Client }

func (t sdkTarget) GPut(ctx context.Context, key string, value []byte, owner string, ttl time.Duration) error {
	return t.c.GPut(ctx, key, value, gdprkv.PutOptions{Owner: owner, Purposes: []string{dataPurpose}, TTL: ttl})
}

func (t sdkTarget) GMPut(ctx context.Context, keys []string, values [][]byte, owner string, ttl time.Duration) error {
	return t.c.GMPut(ctx, keys, values, gdprkv.PutOptions{Owner: owner, Purposes: []string{dataPurpose}, TTL: ttl})
}

func (t sdkTarget) GGet(ctx context.Context, key string) ([]byte, bool, error) {
	v, err := t.c.GGet(ctx, key)
	if errors.Is(err, gdprkv.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (t sdkTarget) GMGet(ctx context.Context, keys []string) ([][]byte, []bool, error) {
	bv, err := t.c.GMGet(ctx, keys...)
	if err != nil {
		return nil, nil, err
	}
	vals := make([][]byte, len(bv))
	found := make([]bool, len(bv))
	for i, b := range bv {
		switch {
		case b.Err == nil:
			vals[i], found[i] = b.Value, true
		case errors.Is(b.Err, gdprkv.ErrNotFound):
		default:
			return nil, nil, fmt.Errorf("GMGET %s: %w", keys[i], b.Err)
		}
	}
	return vals, found, nil
}

func (t sdkTarget) GetUser(ctx context.Context, owner string) (map[string][]byte, error) {
	return t.c.GetUser(ctx, owner)
}

func (t sdkTarget) ExportUser(ctx context.Context, owner string) ([]byte, error) {
	return t.c.ExportUser(ctx, owner)
}

func (t sdkTarget) ForgetUser(ctx context.Context, owner string) (int64, error) {
	return t.c.ForgetUser(ctx, owner)
}

// parseExport decodes an Article 20 payload and checks that it, and each
// record's metadata, name owner.
func parseExport(owner string, b []byte) (map[string][]byte, error) {
	var p struct {
		Format  string `json:"format"`
		Owner   string `json:"owner"`
		Records []struct {
			Key      string `json:"key"`
			Value    []byte `json:"value"`
			Metadata struct {
				Owner string `json:"owner"`
			} `json:"metadata"`
		} `json:"records"`
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("export payload: %w", err)
	}
	if p.Format != "gdprstore-export/v1" || p.Owner != owner {
		return nil, fmt.Errorf("export payload for %q in format %q, want %q", p.Owner, p.Format, owner)
	}
	out := make(map[string][]byte, len(p.Records))
	for _, r := range p.Records {
		if r.Metadata.Owner != owner {
			return nil, fmt.Errorf("export of %s holds %s owned by %q", owner, r.Key, r.Metadata.Owner)
		}
		if _, dup := out[r.Key]; dup {
			return nil, fmt.Errorf("export of %s lists %s twice", owner, r.Key)
		}
		out[r.Key] = r.Value
	}
	return out, nil
}
