package acl

import (
	"testing"
	"time"

	"gdprstore/internal/clock"
)

func newList() (*List, *clock.Virtual) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	return New(vc), vc
}

func TestDefaultDeny(t *testing.T) {
	l, _ := newList()
	d := l.Check("unknown", OpRead, "alice", "billing")
	if d.Allowed {
		t.Fatal("unknown principal allowed")
	}
}

func TestControllerAllowedEverything(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "admin", Role: RoleController})
	for _, op := range []OpClass{OpRead, OpWrite, OpRights, OpAdmin, OpAudit} {
		if d := l.Check("admin", op, "anyone", "any"); !d.Allowed {
			t.Errorf("controller denied %v: %s", op, d.Reason)
		}
	}
}

func TestSubjectOwnDataOnly(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "alice", Role: RoleSubject})
	if d := l.Check("alice", OpRead, "alice", ""); !d.Allowed {
		t.Fatalf("subject denied own read: %s", d.Reason)
	}
	if d := l.Check("alice", OpRights, "alice", ""); !d.Allowed {
		t.Fatalf("subject denied own rights op: %s", d.Reason)
	}
	if d := l.Check("alice", OpWrite, "alice", ""); !d.Allowed {
		t.Fatalf("subject denied own write: %s", d.Reason)
	}
	if d := l.Check("alice", OpRead, "bob", ""); d.Allowed {
		t.Fatal("subject allowed to read another subject's data")
	}
	if d := l.Check("alice", OpAdmin, "alice", ""); d.Allowed {
		t.Fatal("subject allowed admin")
	}
	if d := l.Check("alice", OpAudit, "alice", ""); d.Allowed {
		t.Fatal("subject allowed audit")
	}
}

func TestRegulatorReadAuditOnly(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "dpa", Role: RoleRegulator})
	if d := l.Check("dpa", OpAudit, "", ""); !d.Allowed {
		t.Fatalf("regulator denied audit: %s", d.Reason)
	}
	if d := l.Check("dpa", OpRead, "alice", ""); !d.Allowed {
		t.Fatalf("regulator denied read: %s", d.Reason)
	}
	if d := l.Check("dpa", OpWrite, "alice", ""); d.Allowed {
		t.Fatal("regulator allowed write")
	}
}

func TestProcessorNeedsGrant(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	if d := l.Check("svc", OpRead, "alice", "billing"); d.Allowed {
		t.Fatal("processor allowed without grant")
	}
	if err := l.AddGrant(Grant{Principal: "svc", Purpose: "billing"}); err != nil {
		t.Fatal(err)
	}
	if d := l.Check("svc", OpRead, "alice", "billing"); !d.Allowed {
		t.Fatalf("processor denied with grant: %s", d.Reason)
	}
	if d := l.Check("svc", OpRead, "alice", "marketing"); d.Allowed {
		t.Fatal("grant leaked across purposes")
	}
	if d := l.Check("svc", OpRights, "alice", "billing"); d.Allowed {
		t.Fatal("processor allowed rights op")
	}
}

func TestGrantScopedToOwner(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "billing", Owner: "alice"})
	if d := l.Check("svc", OpRead, "alice", "billing"); !d.Allowed {
		t.Fatalf("scoped grant denied: %s", d.Reason)
	}
	if d := l.Check("svc", OpRead, "bob", "billing"); d.Allowed {
		t.Fatal("owner-scoped grant leaked to another owner")
	}
}

func TestWildcardPurposeGrant(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "*"})
	if d := l.Check("svc", OpWrite, "bob", "anything"); !d.Allowed {
		t.Fatalf("wildcard grant denied: %s", d.Reason)
	}
}

func TestGrantExpiry(t *testing.T) {
	l, vc := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "billing", Expires: vc.Now().Add(time.Hour)})
	if d := l.Check("svc", OpRead, "alice", "billing"); !d.Allowed {
		t.Fatal("unexpired grant denied")
	}
	vc.Advance(2 * time.Hour)
	if d := l.Check("svc", OpRead, "alice", "billing"); d.Allowed {
		t.Fatal("expired grant still allows (Art. 25 duration bound broken)")
	}
	if n := l.PurgeExpired(); n != 1 {
		t.Fatalf("purged %d, want 1", n)
	}
}

func TestRevokeGrants(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "billing"})
	l.AddGrant(Grant{Principal: "svc", Purpose: "marketing"})
	l.AddGrant(Grant{Principal: "svc", Purpose: "marketing", Owner: "alice"})
	if n := l.RevokeGrants("svc", "marketing", ""); n != 2 {
		t.Fatalf("revoked %d, want 2", n)
	}
	if d := l.Check("svc", OpRead, "alice", "marketing"); d.Allowed {
		t.Fatal("revoked grant still in effect")
	}
	if d := l.Check("svc", OpRead, "alice", "billing"); !d.Allowed {
		t.Fatal("unrelated grant lost")
	}
	if n := l.RevokeGrants("svc", "*", ""); n != 1 {
		t.Fatalf("wildcard revoke = %d, want 1", n)
	}
}

func TestAddGrantUnknownPrincipal(t *testing.T) {
	l, _ := newList()
	if err := l.AddGrant(Grant{Principal: "ghost", Purpose: "x"}); err == nil {
		t.Fatal("grant for unknown principal accepted")
	}
}

func TestEnforcementToggle(t *testing.T) {
	l, _ := newList()
	l.SetEnforce(false)
	if d := l.Check("nobody", OpAdmin, "", ""); !d.Allowed {
		t.Fatal("disabled enforcement still denies")
	}
	if l.Enforcing() {
		t.Fatal("Enforcing() wrong")
	}
	l.SetEnforce(true)
	if d := l.Check("nobody", OpAdmin, "", ""); d.Allowed {
		t.Fatal("re-enabled enforcement allows")
	}
}

func TestRemovePrincipal(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "billing"})
	l.RemovePrincipal("svc")
	if _, ok := l.Principal("svc"); ok {
		t.Fatal("principal survives removal")
	}
	if d := l.Check("svc", OpRead, "a", "billing"); d.Allowed {
		t.Fatal("removed principal still allowed")
	}
	if len(l.Grants("svc")) != 0 {
		t.Fatal("grants survive principal removal")
	}
}

func TestGrantsReturnsCopy(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	l.AddGrant(Grant{Principal: "svc", Purpose: "billing"})
	gs := l.Grants("svc")
	gs[0].Purpose = "tampered"
	if l.Grants("svc")[0].Purpose != "billing" {
		t.Fatal("Grants leaked internal slice")
	}
}

func TestRoleAndOpStrings(t *testing.T) {
	if RoleSubject.String() != "subject" || RoleController.String() != "controller" ||
		RoleProcessor.String() != "processor" || RoleRegulator.String() != "regulator" {
		t.Fatal("role names wrong")
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpRights.String() != "rights" ||
		OpAdmin.String() != "admin" || OpAudit.String() != "audit" {
		t.Fatal("op names wrong")
	}
}

// TestAllowedProcessorCheckAllocFree pins the data-path decision — a
// processor with a matching grant — at zero allocations: the allow
// reason is a constant, and only denials build one.
func TestAllowedProcessorCheckAllocFree(t *testing.T) {
	l, _ := newList()
	l.AddPrincipal(Principal{ID: "svc", Role: RoleProcessor})
	if err := l.AddGrant(Grant{Principal: "svc", Purpose: "billing"}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if d := l.Check("svc", OpRead, "alice", "billing"); !d.Allowed {
			t.Fatalf("processor denied with grant: %s", d.Reason)
		}
	})
	if allocs != 0 {
		t.Fatalf("allowed processor check allocates %.1f objects/op, want 0", allocs)
	}
	if d := l.Check("svc", OpRead, "alice", "marketing"); d.Allowed || d.Reason != "no matching grant" {
		t.Fatalf("denial = %+v, want the unchanged no-matching-grant reason", d)
	}
}
