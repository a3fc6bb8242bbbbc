package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/transport"
)

// TestReceiverRPCSurface exercises the receiver's midas.* methods over the
// TCP fabric: install, renew and revoke as batches of one, and list.
func TestReceiverRPCSurface(t *testing.T) {
	n := newTestNode(t)
	mux := transport.NewMux()
	n.receiver.ServeOn(mux)
	srv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := transport.NewTCPCaller()
	defer caller.Close()
	ctx := context.Background()

	signed, err := Sign(n.signer, builtinExt("remote-ext", 1))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ctx, caller, srv.Addr(), MethodApplyBatch, ApplyBatchReq{
		Installs: []InstallReq{{Signed: signed, BaseAddr: "base-1", DurMillis: 60_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.Installs) != 1 || applied.Installs[0].Err != "" || applied.Installs[0].LeaseID == "" {
		t.Fatalf("install outcome = %+v, want a lease", applied.Installs)
	}
	leaseID := applied.Installs[0].LeaseID

	renew := func() RenewItemResp {
		t.Helper()
		resp, err := transport.Invoke[RenewBatchReq, RenewBatchResp](ctx, caller, srv.Addr(), MethodRenewBatch, RenewBatchReq{
			Items: []RenewExtReq{{LeaseID: leaseID, DurMillis: 60_000}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Items) != 1 {
			t.Fatalf("renew outcomes = %+v, want 1", resp.Items)
		}
		return resp.Items[0]
	}
	if got := renew(); got.Err != "" || got.DurMillis != 60_000 {
		t.Fatalf("renew = %+v, want 60000 ms granted", got)
	}

	listResp, err := transport.Invoke[EmptyResp, ListResp](ctx, caller, srv.Addr(), MethodList, EmptyResp{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listResp.Extensions) != 1 || listResp.Extensions[0].Name != "remote-ext" {
		t.Fatalf("list = %+v", listResp.Extensions)
	}

	// Revoking twice: the second revoke finds nothing and still succeeds, so
	// a base retrying a revoke whose response was lost sees it done.
	for i := 0; i < 2; i++ {
		revoked, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ctx, caller, srv.Addr(), MethodApplyBatch, ApplyBatchReq{
			Revokes: []string{"remote-ext"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(revoked.Revokes) != 1 || revoked.Revokes[0].Err != "" {
			t.Fatalf("revoke %d outcome = %+v, want success", i, revoked.Revokes)
		}
	}
	if n.receiver.Has("remote-ext") {
		t.Fatal("revoked extension still installed")
	}

	// Renewing the cancelled lease now fails remotely, for that item only.
	if got := renew(); got.Err == "" {
		t.Fatal("renew of revoked lease should fail")
	}
}

func TestReceiverRenewUnknownLease(t *testing.T) {
	n := newTestNode(t)
	if err := n.receiver.Renew(lease.ID("ghost"), time.Second); err == nil {
		t.Fatal("want error")
	}
}

func TestReceiverWithdrawUnknown(t *testing.T) {
	n := newTestNode(t)
	if err := n.receiver.Withdraw(context.Background(), "ghost"); err == nil {
		t.Fatal("want error")
	}
}

func TestNewReceiverValidation(t *testing.T) {
	if _, err := NewReceiver(ReceiverConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewBaseValidation(t *testing.T) {
	if _, err := NewBase(BaseConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
