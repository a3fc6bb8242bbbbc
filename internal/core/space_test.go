package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sign"
	"repro/internal/tuplespace"
)

func TestSpaceDistribution(t *testing.T) {
	n := newTestNode(t)
	clk := clock.NewManual(time.Unix(0, 0))
	space := tuplespace.New(clk)

	if _, err := PublishExtension(space, n.signer, builtinExt("monitor", 1), "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	listener := &SpaceListener{Space: space, Receiver: n.receiver}
	listener.Scan(30 * time.Second)
	if !n.receiver.Has("monitor") {
		t.Fatal("extension from space not installed")
	}
	infos := n.receiver.Installed()
	if infos[0].BaseAddr != "base-1" {
		t.Errorf("base addr = %s", infos[0].BaseAddr)
	}

	// Repeated scans renew rather than reinstall.
	listener.Scan(30 * time.Second)
	if got := n.lifecycle(); len(got) != 1 || got["ext.installs"] != 1 {
		t.Errorf("lifecycle counters = %v, want only ext.installs=1", got)
	}
}

func TestSpaceDistributionLocality(t *testing.T) {
	n := newTestNode(t)
	space := tuplespace.New(n.clk)
	if _, err := PublishExtension(space, n.signer, builtinExt("monitor", 1), "base-1", 20*time.Second); err != nil {
		t.Fatal(err)
	}
	listener := &SpaceListener{Space: space, Receiver: n.receiver}
	listener.Scan(10 * time.Second)
	if !n.receiver.Has("monitor") {
		t.Fatal("not installed")
	}

	// The base stops renewing the tuple; it expires from the space, the
	// listener stops renewing locally, and the receiver withdraws.
	n.clk.Advance(25 * time.Second)
	space.ExpireNow()
	if space.Len() != 0 {
		t.Fatal("tuple survived")
	}
	listener.Scan(10 * time.Second) // nothing to renew anymore
	n.clk.Advance(11 * time.Second)
	n.receiver.Grantor().ExpireNow()
	if n.receiver.Has("monitor") {
		t.Fatal("extension survived tuple disappearance")
	}
}

func TestSpaceDistributionVersionUpgrade(t *testing.T) {
	n := newTestNode(t)
	space := tuplespace.New(n.clk)
	listener := &SpaceListener{Space: space, Receiver: n.receiver}

	if _, err := PublishExtension(space, n.signer, builtinExt("monitor", 1), "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	listener.Scan(time.Minute)
	if _, err := PublishExtension(space, n.signer, builtinExt("monitor", 2), "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	listener.Scan(time.Minute)
	infos := n.receiver.Installed()
	if len(infos) != 1 || infos[0].Version != 2 {
		t.Errorf("Installed = %+v", infos)
	}
}

func TestSpaceDistributionUntrusted(t *testing.T) {
	n := newTestNode(t)
	space := tuplespace.New(n.clk)
	mallory, err := sign.NewSigner("mallory")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PublishExtension(space, mallory, builtinExt("evil", 1), "base-x", time.Minute); err != nil {
		t.Fatal(err)
	}
	listener := &SpaceListener{Space: space, Receiver: n.receiver}
	listener.Scan(time.Minute)
	if n.receiver.Has("evil") {
		t.Fatal("untrusted extension installed from space")
	}
}
