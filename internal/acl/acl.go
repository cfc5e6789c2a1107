// Package acl implements the fine-grained, dynamic access control GDPR
// Articles 25 ("data protection by design and by default") and 32
// ("security of processing") require of a compliant store. The model is
// deliberately GDPR-shaped rather than POSIX-shaped:
//
//   - principals have roles (controller, processor, data subject,
//     regulator) that bound what operation classes they may issue;
//   - grants tie a principal to a processing purpose, optionally scoped to
//     one data subject and bounded by an expiry ("predefined duration of
//     time", Art. 25);
//   - the default is deny ("by default", Art. 25);
//   - subjects always retain access to their own data (Art. 15), and
//     regulators always have read access to audit artefacts (Art. 58 is out
//     of scope, but GDPRbench's regulator role needs it).
package acl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gdprstore/internal/clock"
)

// Role classifies a principal, following the GDPR vocabulary.
type Role int

// Roles.
const (
	// RoleSubject is a data subject: may exercise rights over own data.
	RoleSubject Role = iota
	// RoleProcessor processes personal data under granted purposes.
	RoleProcessor
	// RoleController administers the store and all personal data in it.
	RoleController
	// RoleRegulator audits compliance (read-only over metadata and logs).
	RoleRegulator
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleSubject:
		return "subject"
	case RoleProcessor:
		return "processor"
	case RoleController:
		return "controller"
	case RoleRegulator:
		return "regulator"
	default:
		return "unknown"
	}
}

// OpClass is the coarse class of an operation for role checks.
type OpClass int

// Operation classes.
const (
	// OpRead covers GET and metadata reads of personal data.
	OpRead OpClass = iota
	// OpWrite covers SET/UPDATE/DEL of personal data.
	OpWrite
	// OpRights covers data-subject rights operations (access, erasure,
	// portability, objection).
	OpRights
	// OpAdmin covers policy and configuration changes.
	OpAdmin
	// OpAudit covers audit-trail queries and breach reports.
	OpAudit
)

// String returns the class name.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRights:
		return "rights"
	case OpAdmin:
		return "admin"
	case OpAudit:
		return "audit"
	default:
		return "unknown"
	}
}

// Principal is an authenticated identity.
type Principal struct {
	// ID is the unique principal name ("analytics-svc", "alice", ...).
	ID string
	// Role bounds the principal's operation classes.
	Role Role
}

// Grant permits a principal to process data for a purpose.
type Grant struct {
	// Principal is the grantee.
	Principal string
	// Purpose is the processing purpose the grant covers ("billing",
	// "marketing", ...). "*" covers all purposes.
	Purpose string
	// Owner optionally scopes the grant to a single data subject; empty
	// covers all subjects.
	Owner string
	// Expires bounds the grant in time; zero means no expiry.
	Expires time.Time
}

// Decision is the outcome of an access check, with the reason retained for
// the audit trail.
type Decision struct {
	Allowed bool
	Reason  string
}

// ErrDenied is returned (wrapped) when an operation is not permitted.
var ErrDenied = errors.New("acl: access denied")

// List is the access-control state. All methods are safe for concurrent
// use.
type List struct {
	mu         sync.RWMutex
	principals map[string]Principal
	grants     map[string][]Grant // principal -> grants
	clk        clock.Clock
	// enforce toggles checking: when false every check allows (the
	// "unmodified Redis" configuration, which has no access control).
	enforce bool
}

// New creates an enforcing ACL with the given clock (nil = wall clock).
func New(clk clock.Clock) *List {
	if clk == nil {
		clk = clock.NewWall()
	}
	return &List{
		principals: make(map[string]Principal),
		grants:     make(map[string][]Grant),
		clk:        clk,
		enforce:    true,
	}
}

// SetEnforce toggles enforcement. Disabled enforcement models the baseline
// (non-compliant) store.
func (l *List) SetEnforce(on bool) {
	l.mu.Lock()
	l.enforce = on
	l.mu.Unlock()
}

// Enforcing reports whether checks are enforced.
func (l *List) Enforcing() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.enforce
}

// AddPrincipal registers (or updates) a principal.
func (l *List) AddPrincipal(p Principal) {
	l.mu.Lock()
	l.principals[p.ID] = p
	l.mu.Unlock()
}

// RemovePrincipal deletes a principal and its grants.
func (l *List) RemovePrincipal(id string) {
	l.mu.Lock()
	delete(l.principals, id)
	delete(l.grants, id)
	l.mu.Unlock()
}

// Principal looks up a registered principal.
func (l *List) Principal(id string) (Principal, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p, ok := l.principals[id]
	return p, ok
}

// AddGrant installs a grant. The principal must exist.
func (l *List) AddGrant(g Grant) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.principals[g.Principal]; !ok {
		return fmt.Errorf("acl: unknown principal %q", g.Principal)
	}
	l.grants[g.Principal] = append(l.grants[g.Principal], g)
	return nil
}

// RevokeGrants removes every grant of principal for purpose ("*" removes
// all purposes) scoped to owner ("" matches grants of any scope). It
// returns the number revoked. Revocation is immediate — the dynamic control
// Art. 21 objections rely on.
func (l *List) RevokeGrants(principal, purpose, owner string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	gs := l.grants[principal]
	kept := gs[:0]
	n := 0
	for _, g := range gs {
		match := (purpose == "*" || g.Purpose == purpose) &&
			(owner == "" || g.Owner == owner)
		if match {
			n++
			continue
		}
		kept = append(kept, g)
	}
	l.grants[principal] = kept
	return n
}

// Grants returns a copy of principal's grants.
func (l *List) Grants(principal string) []Grant {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Grant(nil), l.grants[principal]...)
}

// Check decides whether principal may perform an operation of class op on
// data owned by owner for the stated purpose.
func (l *List) Check(principal string, op OpClass, owner, purpose string) Decision {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.enforce {
		return Decision{Allowed: true, Reason: "enforcement disabled"}
	}
	p, ok := l.principals[principal]
	if !ok {
		return Decision{Allowed: false, Reason: "unknown principal"}
	}
	switch p.Role {
	case RoleController:
		return Decision{Allowed: true, Reason: "controller"}
	case RoleRegulator:
		if op == OpAudit || op == OpRead {
			return Decision{Allowed: true, Reason: "regulator audit access"}
		}
		return Decision{Allowed: false, Reason: "regulator is read/audit-only"}
	case RoleSubject:
		switch op {
		case OpRights, OpRead:
			if owner == principal {
				return Decision{Allowed: true, Reason: "subject accessing own data"}
			}
			return Decision{Allowed: false, Reason: "subject may only access own data"}
		case OpWrite:
			if owner == principal {
				return Decision{Allowed: true, Reason: "subject writing own data"}
			}
			return Decision{Allowed: false, Reason: "subject may only write own data"}
		default:
			return Decision{Allowed: false, Reason: "subject role forbids " + op.String()}
		}
	case RoleProcessor:
		if op == OpAdmin || op == OpRights || op == OpAudit {
			return Decision{Allowed: false, Reason: "processor role forbids " + op.String()}
		}
		now := l.clk.Now()
		for _, g := range l.grants[principal] {
			if !g.Expires.IsZero() && !g.Expires.After(now) {
				continue
			}
			if g.Purpose != "*" && g.Purpose != purpose {
				continue
			}
			if g.Owner != "" && g.Owner != owner {
				continue
			}
			// A constant: allow reasons are never read on the data path,
			// which makes this decision every processor op's.
			return Decision{Allowed: true, Reason: "matching grant"}
		}
		return Decision{Allowed: false, Reason: "no matching grant"}
	default:
		return Decision{Allowed: false, Reason: "unknown role"}
	}
}

// PurgeExpired removes expired grants and returns how many were removed.
// It exists so long-running servers don't accumulate dead grants; checks
// are correct without it.
func (l *List) PurgeExpired() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clk.Now()
	n := 0
	for id, gs := range l.grants {
		kept := gs[:0]
		for _, g := range gs {
			if !g.Expires.IsZero() && !g.Expires.After(now) {
				n++
				continue
			}
			kept = append(kept, g)
		}
		l.grants[id] = kept
	}
	return n
}
