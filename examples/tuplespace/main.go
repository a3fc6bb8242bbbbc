// Tuple-space distribution: the paper's future-work idea (§4.6, citing Linda
// and TSpaces) made concrete. Instead of pushing extensions at discovered
// nodes, the base writes them into a shared tuple space under a lease; nodes
// poll the space and install whatever their trust store accepts. Locality
// still holds: when the base stops renewing the tuple, it vanishes and every
// node autonomously withdraws the extension.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/tuplespace"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	clk := clock.NewManual(time.Unix(0, 0))
	space := tuplespace.New(clk)

	hall, err := sign.NewSigner("hall-1")
	if err != nil {
		return err
	}

	// Two nodes with different trust preferences: pda-a trusts the hall,
	// pda-b trusts nobody. Each counts its adaptation events in reg.
	makeNode := func(name string, trustHall bool, reg *metrics.Registry) (*core.Receiver, *core.SpaceListener, error) {
		trust := sign.NewTrustStore()
		if trustHall {
			trust.Trust("hall-1", hall.PublicKey())
		}
		builtins := core.NewBuiltins()
		builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
			return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
		})
		receiver, err := core.NewReceiver(core.ReceiverConfig{
			NodeName: name,
			Weaver:   weave.New(),
			Trust:    trust,
			Policy:   sandbox.AllowAll(),
			Clock:    clk,
			Host:     lvm.HostMap{},
			Builtins: builtins,
		})
		if err != nil {
			return nil, nil, err
		}
		receiver.Instrument(reg)
		return receiver, &core.SpaceListener{Space: space, Receiver: receiver}, nil
	}

	regA, regB := metrics.New(), metrics.New()
	recvA, listenA, err := makeNode("pda-a", true, regA)
	if err != nil {
		return err
	}
	recvB, listenB, err := makeNode("pda-b", false, regB)
	if err != nil {
		return err
	}

	fmt.Println("1. hall-1 writes its policy extension into the shared tuple space (20s lease)")
	extension := core.Extension{
		ID: "hall-1/policy", Name: "hall-policy", Version: 1,
		Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
	}
	if _, err := core.PublishExtension(space, hall, extension, "hall-1", 20*time.Second); err != nil {
		return err
	}

	fmt.Println("2. both nodes scan the space")
	listenA.Scan(10 * time.Second)
	listenB.Scan(10 * time.Second)
	fmt.Printf("   pda-a installed: %v (trusts hall-1)\n", recvA.Has("hall-policy"))
	fmt.Printf("   pda-b installed: %v (trusts nobody — signature rejected)\n", recvB.Has("hall-policy"))

	fmt.Println("3. the hall keeps renewing the tuple; pda-a keeps renewing its local lease")
	for i := 0; i < 3; i++ {
		clk.Advance(8 * time.Second)
		space.ExpireNow()
		recvA.Grantor().ExpireNow()
		if space.Len() == 1 {
			// hall still around: it renews the tuple; the node rescans.
			listenA.Scan(10 * time.Second)
		}
	}
	fmt.Printf("   after 24s: pda-a still adapted: %v\n", recvA.Has("hall-policy"))

	fmt.Println("4. the hall disappears; the tuple's lease lapses")
	clk.Advance(21 * time.Second)
	space.ExpireNow()
	fmt.Printf("   tuples left in space: %d\n", space.Len())
	clk.Advance(11 * time.Second)
	recvA.Grantor().ExpireNow()
	fmt.Printf("   pda-a adapted after expiry: %v\n", recvA.Has("hall-policy"))
	fmt.Printf("   pda-a installed now: %v\n", recvA.Installed())
	for _, c := range []string{"ext.installs", "ext.expiries"} {
		fmt.Printf("   pda-a %s = %d\n", c, regA.CounterValue(c))
	}
	fmt.Printf("   pda-b ext.rejects = %d\n", regB.CounterValue("ext.rejects"))
	return nil
}
