// Fuzz battery for the wire codec, run against the real message types (this
// is an external test package, so it can import the packages that define
// them without a cycle — they import wire).
//
// FuzzWireRoundTrip: any message value round-trips bit-identically — encode,
// decode, re-encode must give the same bytes (the property replays and
// golden vectors rest on). FuzzWireDecode: arbitrary bytes never panic the
// decoder; every input either errors or yields a message whose own encoding
// decodes again.
package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// buildMessages derives one instance of each message type from the fuzz
// inputs, exercising every primitive: varints of both signs, strings, byte
// slices, string slices, maps, bools, optional nested messages and nesting.
func buildMessages(s1, s2, s3 string, i1, i2 int64, b1 []byte, ok bool) []wire.Marshaler {
	ext := core.Extension{
		ID:       s1,
		Name:     s2,
		Version:  int(int32(i1)),
		Priority: int(int32(i2)),
		Advices: []core.AdviceSpec{{
			Name:    s2,
			Kind:    "call-before",
			Pattern: s3,
			Builtin: s1,
			Config:  map[string]string{s1: s2, s3: s1},
			Code:    s3,
		}},
		Requires: []string{s1, s2},
		Caps:     []string{s3},
		Meta:     map[string]string{s2: s3},
	}
	signed := core.SignedExtension{
		Ext: ext,
		Sig: sign.Signature{SignerName: s1, PublicKey: b1, Sig: b1},
	}
	sc := trace.SpanContext{TraceID: s1, SpanID: s2, Flags: uint8(i1)}
	var obs *core.ObsReport
	var ovl *overload.Snapshot
	if ok {
		obs = &core.ObsReport{Methods: []core.ObsMethodDelta{{Method: s1, Count: uint64(i1), Errors: uint64(i2), SumNs: i2}}, SpansDropped: uint64(i2)}
		ovl = &overload.Snapshot{Limit: int(int32(i1)), Inflight: int(int32(i2)), Admitted: uint64(i1), PeerSheds: uint64(i2), Peers: 3}
	}
	rec := store.Record{Seq: i1, Robot: s1, Device: s2, Action: s3, Value: i2, AtMillis: i1, DurMilli: i2}
	return []wire.Marshaler{
		core.RenewExtReq{LeaseID: s1, DurMillis: i1},
		core.RenewBatchReq{Items: []core.RenewExtReq{{LeaseID: s1, DurMillis: i1}, {LeaseID: s2, DurMillis: i2}}, WantObs: ok},
		core.RenewBatchResp{Items: []core.RenewItemResp{{DurMillis: i1, Err: s3}}, Obs: obs},
		core.InstallReq{Signed: signed, BaseAddr: s2, DurMillis: i1},
		core.ApplyBatchReq{Installs: []core.InstallReq{{Signed: signed, BaseAddr: s1, DurMillis: i2}}, Revokes: []string{s1, s2, s3}},
		core.ApplyBatchResp{
			Installs: []core.InstallItemResp{{LeaseID: s1, Err: s2}},
			Revokes:  []core.RevokeItemResp{{Err: s3}},
		},
		core.ListResp{Extensions: []core.ExtensionInfo{{ID: s1, Name: s2, Version: int(int32(i1)), BaseAddr: s3, System: ok}}},
		core.InventoryResp{Node: s1, Items: []core.InventoryItem{{Name: s2, Version: int(int32(i2)), BaseAddr: s3, LeaseID: s1, DeadlineMillis: i1}}},
		core.EmptyResp{},
		registry.RegisterReq{Item: registry.ServiceItem{ID: s1, Name: s2, Addr: s3, Attrs: map[string]string{s1: s2}}, DurMillis: i1},
		registry.LeaseResp{LeaseID: s1, DurMillis: i2},
		registry.FindReq{Tmpl: registry.Template{Name: s1, Attrs: map[string]string{s2: s3, s1: s2}}},
		registry.FindResp{Items: []registry.ServiceItem{{ID: s1, Name: s2, Addr: s3}}},
		registry.WatchReq{Tmpl: registry.Template{Name: s3}, DurMillis: i1, Addr: s1, Method: s2},
		sc,
		svc.InvokeReq{Service: s1, Method: s2, Caller: s3, Args: []lvm.Value{lvm.Int(i1), lvm.Bool(ok), lvm.Str(s3), lvm.Bytes(b1), lvm.Nil()}},
		svc.InvokeResp{Result: lvm.Int(i2)},
		event.Notification{Source: s1, Seq: i1, Kind: s2, Body: b1, Trace: sc},
		registry.Event{Kind: registry.EventKind(i2), Item: registry.ServiceItem{ID: s1, Name: s2, Addr: s3}, Trace: sc},
		core.PostReq{Record: rec},
		core.QueryReq{Filter: store.Filter{Robot: s1, Device: s2, Action: s3, Since: i1, Until: i2}},
		core.QueryResp{Records: []store.Record{rec, {Robot: s2}}},
		core.RoamReq{NodeID: s1, NodeAddr: s2},
		core.BaseStatusResp{
			Name:       s1,
			Addr:       s2,
			Extensions: []string{s3},
			Nodes: []core.NodeStatus{{
				ID: s1, Addr: s2, State: "adapted", Breaker: s3, Exts: []string{s1},
				LastReconcile: core.ReconcileResult{AtMillis: i1, Err: s2, Repushed: []string{s3}, Revoked: []string{s1}, Adopted: []string{s2}, Promoted: ok, InSync: !ok},
			}},
			Drift: core.DriftCounters{Rounds: uint64(i1), Repushes: uint64(i2), Orphans: 1, Adopts: 2, Errors: 3},
		},
		core.FleetResp{
			Methods:  []core.FleetMethod{{Method: s1, Count: uint64(i1), Errors: uint64(i2), SumNs: i1, MeanNs: i2}},
			Nodes:    []core.FleetNode{{Node: s2, Count: uint64(i2), SumNs: i1, SpansDropped: 1, SampledOut: 2, TailKept: 3, LastReportMillis: i2}},
			Degraded: []string{s3},
			Reports:  uint64(i1),
			Overload: ovl,
		},
		core.AnalyzeReq{Ext: s1},
		core.AnalyzeResp{Report: core.AnalysisReport{Ext: s1, Version: int(int32(i1)), Caps: []string{s2}, HostCalls: []string{s3}, Flows: []string{s1}, FuelBounded: ok, FuelSteps: int(int32(i2)), Warnings: []string{s2}}},
		core.MetricsResp{Snap: metrics.Snapshot{
			Counters:   map[string]uint64{s1: uint64(i1), s2 + "x": 1},
			Gauges:     map[string]int64{s3: i2},
			Histograms: map[string]metrics.HistSnapshot{s2: {Bounds: []int64{i1, i2}, Counts: []uint64{1, 2, uint64(i1)}, Count: 3, Sum: i2, P50: i1, P95: i2, P99: i1}},
		}},
		core.TraceReq{Query: s1},
		core.TraceResp{
			Spans:  []trace.SpanSnapshot{{TraceID: s1, SpanID: s2, ParentID: s3, Name: s1, Tags: map[string]string{s2: s3}, StartUnixNano: i1, EndUnixNano: i2, Err: s3, Annotations: []trace.Annotation{{AtUnixNano: i1, Msg: s2}}}},
			Events: []trace.Event{{Seq: uint64(i1), AtUnixNano: i2, TraceID: s1, Component: s2, Msg: s3}},
		},
	}
}

func FuzzWireRoundTrip(f *testing.F) {
	f.Add("lease-1", "policy", "cell/*", int64(60_000), int64(-7), []byte{1, 2, 3}, true)
	f.Add("", "", "", int64(0), int64(0), []byte(nil), false)
	f.Add("☃ unicode", "\x00nul", "long"+string(make([]byte, 300)), int64(1)<<62, int64(-1)<<62, bytes.Repeat([]byte{0xff}, 64), true)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, i1, i2 int64, b1 []byte, ok bool) {
		for _, msg := range buildMessages(s1, s2, s3, i1, i2, b1, ok) {
			data := wire.Marshal(msg)
			if !wire.IsFrame(data) {
				t.Fatalf("%T: marshal produced a non-frame", msg)
			}
			// Decode into a fresh value of the same type.
			out := reflect.New(reflect.TypeOf(msg)).Interface().(wire.Unmarshaler)
			if err := wire.Unmarshal(data, out); err != nil {
				t.Fatalf("%T: unmarshal of own encoding: %v", msg, err)
			}
			again := wire.Marshal(reflect.ValueOf(out).Elem().Interface().(wire.Marshaler))
			if !bytes.Equal(data, again) {
				t.Fatalf("%T: round trip not bit-identical:\n 1st: % x\n 2nd: % x", msg, data, again)
			}
		}
	})
}

func FuzzWireDecode(f *testing.F) {
	// Seed with valid encodings, truncations and corruptions of each type.
	for _, msg := range buildMessages("a", "bb", "ccc", 1, -2, []byte{9}, true) {
		data := wire.Marshal(msg)
		f.Add(data)
		f.Add(data[:len(data)-1])
		if len(data) > 4 {
			mid := append([]byte{}, data...)
			mid[4] ^= 0xff
			f.Add(mid)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xC6, wire.Version})
	f.Add([]byte{0x00, 0xC6, wire.Version, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	targets := func() []wire.Unmarshaler {
		return []wire.Unmarshaler{
			&core.RenewBatchReq{},
			&core.ApplyBatchReq{},
			&core.InstallReq{},
			&core.InventoryResp{},
			&core.ListResp{},
			&registry.RegisterReq{},
			&registry.FindResp{},
			&registry.WatchReq{},
			&trace.SpanContext{},
			&svc.InvokeReq{},
			&svc.InvokeResp{},
			&event.Notification{},
			&registry.Event{},
			&core.PostReq{},
			&core.QueryReq{},
			&core.QueryResp{},
			&core.RoamReq{},
			&core.BaseStatusResp{},
			&core.FleetResp{},
			&core.AnalyzeReq{},
			&core.AnalyzeResp{},
			&core.MetricsResp{},
			&core.TraceReq{},
			&core.TraceResp{},
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, u := range targets() {
			// Must never panic and never allocate beyond the input's size
			// (hostile length prefixes are bounds-checked inside).
			if err := wire.Unmarshal(data, u); err != nil {
				continue
			}
			// Decoded cleanly: the value must be a valid message, i.e. its
			// own encoding decodes again.
			m := reflect.ValueOf(u).Elem().Interface().(wire.Marshaler)
			out := reflect.New(reflect.TypeOf(u).Elem()).Interface().(wire.Unmarshaler)
			if err := wire.Unmarshal(wire.Marshal(m), out); err != nil {
				t.Fatalf("%T: decoded value does not re-encode cleanly: %v", u, err)
			}
		}
	})
}
