package core

import (
	"repro/internal/overload"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Wire codecs for every message of the base and receiver RPC surfaces. Each
// type writes its fields in declaration order; slices and maps go through
// the codec's count-prefixed, key-sorted forms so equal values always produce
// equal bytes (golden vectors and same-seed replays depend on it). An
// optional nested message is a presence bool followed by the message.

// MarshalWire encodes a with the wire codec.
func (a AdviceSpec) MarshalWire(e *wire.Encoder) {
	e.String(a.Name)
	e.String(a.Kind)
	e.String(a.Pattern)
	e.String(a.Builtin)
	e.StringMap(a.Config)
	e.String(a.Code)
}

// UnmarshalWire decodes a from the wire codec.
func (a *AdviceSpec) UnmarshalWire(d *wire.Decoder) error {
	a.Name = d.String()
	a.Kind = d.String()
	a.Pattern = d.String()
	a.Builtin = d.String()
	a.Config = d.StringMap()
	a.Code = d.String()
	return d.Err()
}

// MarshalWire encodes x with the wire codec.
func (x Extension) MarshalWire(e *wire.Encoder) {
	e.String(x.ID)
	e.String(x.Name)
	e.Varint(int64(x.Version))
	e.Varint(int64(x.Priority))
	wire.Slice(e, x.Advices)
	e.StringSlice(x.Requires)
	e.StringSlice(x.Caps)
	e.StringSlice(x.Flows)
	e.StringMap(x.Meta)
}

// UnmarshalWire decodes x from the wire codec.
func (x *Extension) UnmarshalWire(d *wire.Decoder) error {
	x.ID = d.String()
	x.Name = d.String()
	x.Version = int(d.Varint())
	x.Priority = int(d.Varint())
	x.Advices = wire.DecodeSlice[AdviceSpec](d)
	x.Requires = d.StringSlice()
	x.Caps = d.StringSlice()
	x.Flows = d.StringSlice()
	x.Meta = d.StringMap()
	return d.Err()
}

// MarshalWire encodes s with the wire codec.
func (s SignedExtension) MarshalWire(e *wire.Encoder) {
	s.Ext.MarshalWire(e)
	s.Sig.MarshalWire(e)
}

// UnmarshalWire decodes s from the wire codec.
func (s *SignedExtension) UnmarshalWire(d *wire.Decoder) error {
	if err := s.Ext.UnmarshalWire(d); err != nil {
		return err
	}
	return s.Sig.UnmarshalWire(d)
}

// MarshalWire encodes i with the wire codec.
func (i ExtensionInfo) MarshalWire(e *wire.Encoder) {
	e.String(i.ID)
	e.String(i.Name)
	e.Varint(int64(i.Version))
	e.String(i.BaseAddr)
	e.Bool(i.System)
}

// UnmarshalWire decodes i from the wire codec.
func (i *ExtensionInfo) UnmarshalWire(d *wire.Decoder) error {
	i.ID = d.String()
	i.Name = d.String()
	i.Version = int(d.Varint())
	i.BaseAddr = d.String()
	i.System = d.Bool()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InstallReq) MarshalWire(e *wire.Encoder) {
	r.Signed.MarshalWire(e)
	e.String(r.BaseAddr)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InstallReq) UnmarshalWire(d *wire.Decoder) error {
	if err := r.Signed.UnmarshalWire(d); err != nil {
		return err
	}
	r.BaseAddr = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewExtReq) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewExtReq) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ListResp) MarshalWire(e *wire.Encoder) { wire.Slice(e, r.Extensions) }

// UnmarshalWire decodes r from the wire codec.
func (r *ListResp) UnmarshalWire(d *wire.Decoder) error {
	r.Extensions = wire.DecodeSlice[ExtensionInfo](d)
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r EmptyResp) MarshalWire(e *wire.Encoder) {}

// UnmarshalWire decodes r from the wire codec.
func (r *EmptyResp) UnmarshalWire(d *wire.Decoder) error { return d.Err() }

// MarshalWire encodes r with the wire codec.
func (r RenewBatchReq) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Items)
	e.Bool(r.WantObs)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewBatchReq) UnmarshalWire(d *wire.Decoder) error {
	r.Items = wire.DecodeSlice[RenewExtReq](d)
	r.WantObs = d.Bool()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewItemResp) MarshalWire(e *wire.Encoder) {
	e.Varint(r.DurMillis)
	e.String(r.Err)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.DurMillis = d.Varint()
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewBatchResp) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Items)
	e.Bool(r.Obs != nil)
	if r.Obs != nil {
		r.Obs.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewBatchResp) UnmarshalWire(d *wire.Decoder) error {
	r.Items = wire.DecodeSlice[RenewItemResp](d)
	r.Obs = nil
	if d.Bool() {
		r.Obs = new(ObsReport)
		return r.Obs.UnmarshalWire(d)
	}
	return d.Err()
}

// MarshalWire encodes m with the wire codec.
func (m ObsMethodDelta) MarshalWire(e *wire.Encoder) {
	e.String(m.Method)
	e.Uvarint(m.Count)
	e.Uvarint(m.Errors)
	e.Varint(m.SumNs)
}

// UnmarshalWire decodes m from the wire codec.
func (m *ObsMethodDelta) UnmarshalWire(d *wire.Decoder) error {
	m.Method = d.String()
	m.Count = d.Uvarint()
	m.Errors = d.Uvarint()
	m.SumNs = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ObsReport) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Methods)
	e.Uvarint(r.SpansDropped)
	e.Uvarint(r.SampledOut)
	e.Uvarint(r.TailKept)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ObsReport) UnmarshalWire(d *wire.Decoder) error {
	r.Methods = wire.DecodeSlice[ObsMethodDelta](d)
	r.SpansDropped = d.Uvarint()
	r.SampledOut = d.Uvarint()
	r.TailKept = d.Uvarint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ApplyBatchReq) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Installs)
	e.StringSlice(r.Revokes)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ApplyBatchReq) UnmarshalWire(d *wire.Decoder) error {
	r.Installs = wire.DecodeSlice[InstallReq](d)
	r.Revokes = d.StringSlice()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InstallItemResp) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.String(r.Err)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InstallItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RevokeItemResp) MarshalWire(e *wire.Encoder) { e.String(r.Err) }

// UnmarshalWire decodes r from the wire codec.
func (r *RevokeItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ApplyBatchResp) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Installs)
	wire.Slice(e, r.Revokes)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ApplyBatchResp) UnmarshalWire(d *wire.Decoder) error {
	r.Installs = wire.DecodeSlice[InstallItemResp](d)
	r.Revokes = wire.DecodeSlice[RevokeItemResp](d)
	return d.Err()
}

// MarshalWire encodes i with the wire codec.
func (i InventoryItem) MarshalWire(e *wire.Encoder) {
	e.String(i.Name)
	e.Varint(int64(i.Version))
	e.String(i.BaseAddr)
	e.String(i.LeaseID)
	e.Varint(i.DeadlineMillis)
}

// UnmarshalWire decodes i from the wire codec.
func (i *InventoryItem) UnmarshalWire(d *wire.Decoder) error {
	i.Name = d.String()
	i.Version = int(d.Varint())
	i.BaseAddr = d.String()
	i.LeaseID = d.String()
	i.DeadlineMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InventoryResp) MarshalWire(e *wire.Encoder) {
	e.String(r.Node)
	wire.Slice(e, r.Items)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InventoryResp) UnmarshalWire(d *wire.Decoder) error {
	r.Node = d.String()
	r.Items = wire.DecodeSlice[InventoryItem](d)
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r MetricsResp) MarshalWire(e *wire.Encoder) { r.Snap.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *MetricsResp) UnmarshalWire(d *wire.Decoder) error { return r.Snap.UnmarshalWire(d) }

// MarshalWire encodes r with the wire codec.
func (r TraceReq) MarshalWire(e *wire.Encoder) { e.String(r.Query) }

// UnmarshalWire decodes r from the wire codec.
func (r *TraceReq) UnmarshalWire(d *wire.Decoder) error {
	r.Query = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r TraceResp) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Spans)
	wire.Slice(e, r.Events)
}

// UnmarshalWire decodes r from the wire codec.
func (r *TraceResp) UnmarshalWire(d *wire.Decoder) error {
	r.Spans = wire.DecodeSlice[trace.SpanSnapshot](d)
	r.Events = wire.DecodeSlice[trace.Event](d)
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r PostReq) MarshalWire(e *wire.Encoder) { r.Record.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *PostReq) UnmarshalWire(d *wire.Decoder) error { return r.Record.UnmarshalWire(d) }

// MarshalWire encodes r with the wire codec.
func (r RoamReq) MarshalWire(e *wire.Encoder) {
	e.String(r.NodeID)
	e.String(r.NodeAddr)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RoamReq) UnmarshalWire(d *wire.Decoder) error {
	r.NodeID = d.String()
	r.NodeAddr = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r QueryReq) MarshalWire(e *wire.Encoder) { r.Filter.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *QueryReq) UnmarshalWire(d *wire.Decoder) error { return r.Filter.UnmarshalWire(d) }

// MarshalWire encodes r with the wire codec.
func (r QueryResp) MarshalWire(e *wire.Encoder) { wire.Slice(e, r.Records) }

// UnmarshalWire decodes r from the wire codec.
func (r *QueryResp) UnmarshalWire(d *wire.Decoder) error {
	r.Records = wire.DecodeSlice[store.Record](d)
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r AnalysisReport) MarshalWire(e *wire.Encoder) {
	e.String(r.Ext)
	e.Varint(int64(r.Version))
	e.StringSlice(r.Caps)
	e.StringSlice(r.HostCalls)
	e.StringSlice(r.Flows)
	e.Bool(r.FuelBounded)
	e.Varint(int64(r.FuelSteps))
	e.StringSlice(r.Warnings)
}

// UnmarshalWire decodes r from the wire codec.
func (r *AnalysisReport) UnmarshalWire(d *wire.Decoder) error {
	r.Ext = d.String()
	r.Version = int(d.Varint())
	r.Caps = d.StringSlice()
	r.HostCalls = d.StringSlice()
	r.Flows = d.StringSlice()
	r.FuelBounded = d.Bool()
	r.FuelSteps = int(d.Varint())
	r.Warnings = d.StringSlice()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r AnalyzeReq) MarshalWire(e *wire.Encoder) { e.String(r.Ext) }

// UnmarshalWire decodes r from the wire codec.
func (r *AnalyzeReq) UnmarshalWire(d *wire.Decoder) error {
	r.Ext = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r AnalyzeResp) MarshalWire(e *wire.Encoder) { r.Report.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *AnalyzeResp) UnmarshalWire(d *wire.Decoder) error { return r.Report.UnmarshalWire(d) }

// MarshalWire encodes r with the wire codec.
func (r ReconcileResult) MarshalWire(e *wire.Encoder) {
	e.Varint(r.AtMillis)
	e.String(r.Err)
	e.StringSlice(r.Repushed)
	e.StringSlice(r.Revoked)
	e.StringSlice(r.Adopted)
	e.Bool(r.Promoted)
	e.Bool(r.InSync)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ReconcileResult) UnmarshalWire(d *wire.Decoder) error {
	r.AtMillis = d.Varint()
	r.Err = d.String()
	r.Repushed = d.StringSlice()
	r.Revoked = d.StringSlice()
	r.Adopted = d.StringSlice()
	r.Promoted = d.Bool()
	r.InSync = d.Bool()
	return d.Err()
}

// MarshalWire encodes s with the wire codec.
func (s NodeStatus) MarshalWire(e *wire.Encoder) {
	e.String(s.ID)
	e.String(s.Addr)
	e.String(s.State)
	e.String(s.Breaker)
	e.StringSlice(s.Exts)
	s.LastReconcile.MarshalWire(e)
}

// UnmarshalWire decodes s from the wire codec.
func (s *NodeStatus) UnmarshalWire(d *wire.Decoder) error {
	s.ID = d.String()
	s.Addr = d.String()
	s.State = d.String()
	s.Breaker = d.String()
	s.Exts = d.StringSlice()
	return s.LastReconcile.UnmarshalWire(d)
}

// MarshalWire encodes c with the wire codec.
func (c DriftCounters) MarshalWire(e *wire.Encoder) {
	e.Uvarint(c.Rounds)
	e.Uvarint(c.Repushes)
	e.Uvarint(c.Orphans)
	e.Uvarint(c.Adopts)
	e.Uvarint(c.Errors)
}

// UnmarshalWire decodes c from the wire codec.
func (c *DriftCounters) UnmarshalWire(d *wire.Decoder) error {
	c.Rounds = d.Uvarint()
	c.Repushes = d.Uvarint()
	c.Orphans = d.Uvarint()
	c.Adopts = d.Uvarint()
	c.Errors = d.Uvarint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r BaseStatusResp) MarshalWire(e *wire.Encoder) {
	e.String(r.Name)
	e.String(r.Addr)
	e.StringSlice(r.Extensions)
	wire.Slice(e, r.Nodes)
	r.Drift.MarshalWire(e)
}

// UnmarshalWire decodes r from the wire codec.
func (r *BaseStatusResp) UnmarshalWire(d *wire.Decoder) error {
	r.Name = d.String()
	r.Addr = d.String()
	r.Extensions = d.StringSlice()
	r.Nodes = wire.DecodeSlice[NodeStatus](d)
	return r.Drift.UnmarshalWire(d)
}

// MarshalWire encodes m with the wire codec.
func (m FleetMethod) MarshalWire(e *wire.Encoder) {
	e.String(m.Method)
	e.Uvarint(m.Count)
	e.Uvarint(m.Errors)
	e.Varint(m.SumNs)
	e.Varint(m.MeanNs)
}

// UnmarshalWire decodes m from the wire codec.
func (m *FleetMethod) UnmarshalWire(d *wire.Decoder) error {
	m.Method = d.String()
	m.Count = d.Uvarint()
	m.Errors = d.Uvarint()
	m.SumNs = d.Varint()
	m.MeanNs = d.Varint()
	return d.Err()
}

// MarshalWire encodes n with the wire codec.
func (n FleetNode) MarshalWire(e *wire.Encoder) {
	e.String(n.Node)
	e.Uvarint(n.Count)
	e.Uvarint(n.Errors)
	e.Varint(n.SumNs)
	e.Uvarint(n.SpansDropped)
	e.Uvarint(n.SampledOut)
	e.Uvarint(n.TailKept)
	e.Varint(n.LastReportMillis)
}

// UnmarshalWire decodes n from the wire codec.
func (n *FleetNode) UnmarshalWire(d *wire.Decoder) error {
	n.Node = d.String()
	n.Count = d.Uvarint()
	n.Errors = d.Uvarint()
	n.SumNs = d.Varint()
	n.SpansDropped = d.Uvarint()
	n.SampledOut = d.Uvarint()
	n.TailKept = d.Uvarint()
	n.LastReportMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r FleetResp) MarshalWire(e *wire.Encoder) {
	wire.Slice(e, r.Methods)
	wire.Slice(e, r.Nodes)
	e.StringSlice(r.Degraded)
	e.Uvarint(r.Reports)
	e.Bool(r.Overload != nil)
	if r.Overload != nil {
		r.Overload.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *FleetResp) UnmarshalWire(d *wire.Decoder) error {
	r.Methods = wire.DecodeSlice[FleetMethod](d)
	r.Nodes = wire.DecodeSlice[FleetNode](d)
	r.Degraded = d.StringSlice()
	r.Reports = d.Uvarint()
	r.Overload = nil
	if d.Bool() {
		r.Overload = new(overload.Snapshot)
		return r.Overload.UnmarshalWire(d)
	}
	return d.Err()
}
