package core

import (
	"context"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/sign"
	"repro/internal/transport"
	"repro/internal/tuplespace"
	"repro/internal/wire"
)

// Tuple-space distribution: the alternative extension-distribution substrate
// the paper names as future work (§4.6, citing Linda and TSpaces). A base
// writes its signed extensions into a shared space under leases; receivers
// poll the space and install whatever matches, renewing their local leases
// for as long as the tuple stays alive. When the base stops renewing the
// tuple (or the node can no longer reach the space), the extension expires on
// the node exactly like in the push model.

// extensionTupleTag tags extension tuples in a shared space.
const extensionTupleTag = "midas.extension"

// PublishExtension signs ext and writes it into sp under a lease of dur:
// ("midas.extension", name, version, baseAddr, payload).
func PublishExtension(sp *tuplespace.Space, signer *sign.Signer, ext Extension, baseAddr string, dur time.Duration) (tuplespace.Tuple, error) {
	signed, err := Sign(signer, ext)
	if err != nil {
		return nil, err
	}
	payload := wire.Marshal(signed)
	t := tuplespace.Tuple{
		tuplespace.FStr(extensionTupleTag),
		tuplespace.FStr(ext.Name),
		tuplespace.FInt(int64(ext.Version)),
		tuplespace.FStr(baseAddr),
		tuplespace.FBytes(payload),
	}
	sp.Out(t, dur)
	return t, nil
}

// extensionTemplate matches all extension tuples.
func extensionTemplate() tuplespace.Tuple {
	return tuplespace.Tuple{
		tuplespace.FStr(extensionTupleTag),
		tuplespace.FAny(),
		tuplespace.FAny(),
		tuplespace.FAny(),
		tuplespace.FAny(),
	}
}

// SpaceListener keeps one receiver synchronised with the extensions present
// in a tuple space.
type SpaceListener struct {
	Space    *tuplespace.Space
	Receiver *Receiver
	// Poll is the space scan interval (default 50ms).
	Poll time.Duration
	// LeaseDur is the local lease granted per installed extension; it must
	// comfortably exceed Poll (default 4×Poll).
	LeaseDur time.Duration
	// Clock paces the scan loop (default: the real clock).
	Clock clock.Clock

	leases map[string]string // "name@version" -> lease id
}

// Run scans the space until ctx is cancelled: new extension tuples are
// verified and installed; known ones have their local leases renewed. When a
// tuple disappears, renewals stop and the receiver expires the extension on
// its own.
func (l *SpaceListener) Run(ctx context.Context) error {
	poll := l.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	leaseDur := l.LeaseDur
	if leaseDur <= 0 {
		leaseDur = 4 * poll
	}
	if l.leases == nil {
		l.leases = make(map[string]string)
	}
	clk := l.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	for {
		l.Scan(leaseDur)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(poll):
		}
	}
}

// Scan performs one synchronisation round; Run calls it periodically, and
// deterministic tests or manual pollers may call it directly.
func (l *SpaceListener) Scan(leaseDur time.Duration) {
	if l.leases == nil {
		l.leases = make(map[string]string)
	}
	for _, t := range l.Space.RdAll(extensionTemplate()) {
		if len(t) != 5 {
			continue
		}
		key := t[1].S + "@" + strconv.FormatInt(t[2].I, 10)
		baseAddr := t[3].S
		if id, known := l.leases[key]; known {
			if err := l.Receiver.Renew(lease.ID(id), leaseDur); err == nil {
				continue
			}
			// Lease vanished (expired during a long pause): re-install.
			delete(l.leases, key)
		}
		var signed SignedExtension
		if err := transport.Decode(t[4].B, &signed); err != nil {
			continue // malformed tuple: ignore, it is not for us
		}
		id, err := l.Receiver.Install(signed, baseAddr, leaseDur)
		if err != nil {
			continue // untrusted, stale version, or policy rejection
		}
		l.leases[key] = string(id)
	}
}
