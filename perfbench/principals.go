package main

import (
	"context"
	"fmt"

	"gdprstore/internal/acl"
	"gdprstore/pkg/gdprkv"
)

// The principals the benchmark acts as. Every way the benchmark registers
// or authenticates a principal is in this file, so a change to how the
// server authenticates (AUTH with a secret, persisted ACLs) is made here
// and nowhere else.
const (
	processorID  = "bench-processor"
	controllerID = "bench-controller"
)

// registerPrincipals creates the processor, with a grant for dataPurpose,
// and the controller on a fresh server.
func registerPrincipals(ctx context.Context, addr string) error {
	c, err := gdprkv.Dial(ctx, addr, gdprkv.WithPoolSize(1))
	if err != nil {
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	defer c.Close()
	for _, cmd := range [][]string{
		{"ACL", "ADDPRINCIPAL", processorID, "processor"},
		{"ACL", "GRANT", processorID, dataPurpose},
		{"ACL", "ADDPRINCIPAL", controllerID, "controller"},
	} {
		if _, err := c.Do(ctx, cmd...); err != nil {
			return fmt.Errorf("%v: %w", cmd, err)
		}
	}
	return nil
}

// dialProcessor opens one data-path connection authenticated as the
// processor under dataPurpose.
func dialProcessor(ctx context.Context, addr string) (*gdprkv.Client, error) {
	return gdprkv.Dial(ctx, addr, gdprkv.WithPoolSize(1),
		gdprkv.WithActor(processorID), gdprkv.WithPurpose(dataPurpose))
}

// dialController opens one connection authenticated as the controller,
// which runs the data-subject rights requests.
func dialController(ctx context.Context, addr string) (*gdprkv.Client, error) {
	return gdprkv.Dial(ctx, addr, gdprkv.WithPoolSize(1),
		gdprkv.WithActor(controllerID), gdprkv.WithPurpose(dataPurpose))
}

// registerLadderPrincipals gives an in-process store, as the layer ladder
// opens it, the same principals and grant as registerPrincipals.
func registerLadderPrincipals(l *acl.List) error {
	l.AddPrincipal(acl.Principal{ID: processorID, Role: acl.RoleProcessor})
	l.AddPrincipal(acl.Principal{ID: controllerID, Role: acl.RoleController})
	return l.AddGrant(acl.Grant{Principal: processorID, Purpose: dataPurpose})
}
