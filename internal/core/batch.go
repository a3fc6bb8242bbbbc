package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/lease"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Batched RPC surface, the receiver's only mutation surface: all of a node's
// due lease renewals ride one midas.renewBatch call, and the installs and
// revokes an adapt round, a policy change or a reconcile diff produces for
// one node ride one midas.applyBatch call. A lone install, revoke or renewal
// is a batch of one.

// RPC method names of the batch surface.
const (
	MethodRenewBatch = "midas.renewBatch"
	MethodApplyBatch = "midas.applyBatch"
)

// Wire types for the batch surface.
type (
	// RenewBatchReq renews several leases at one node in one exchange.
	// WantObs asks the node to piggyback its observability delta on the
	// response.
	RenewBatchReq struct {
		Items   []RenewExtReq
		WantObs bool
	}
	// RenewItemResp is one lease's renewal outcome; Err is the remote error
	// text ("" on success) so one bad lease does not fail its batch-mates.
	RenewItemResp struct {
		DurMillis int64
		Err       string
	}
	// RenewBatchResp carries the per-item outcomes, aligned with the request.
	// Obs is the piggybacked observability delta (fleet.go), present only
	// when the request asked for it.
	RenewBatchResp struct {
		Items []RenewItemResp
		Obs   *ObsReport
	}
	// ApplyBatchReq bundles the installs and revokes one reconcile diff (or
	// adapt round) produced for one node.
	ApplyBatchReq struct {
		Installs []InstallReq
		Revokes  []string
	}
	// InstallItemResp is one install's outcome.
	InstallItemResp struct {
		LeaseID string
		Err     string
	}
	// RevokeItemResp is one revoke's outcome; revoking an extension that is
	// already gone succeeds, so a retried revoke whose response was lost is
	// not an error.
	RevokeItemResp struct {
		Err string
	}
	// ApplyBatchResp carries per-item outcomes, aligned with the request.
	ApplyBatchResp struct {
		Installs []InstallItemResp
		Revokes  []RevokeItemResp
	}
)

// serveBatch registers the receiver's batch endpoints on mux.
func (r *Receiver) serveBatch(mux *transport.Mux) {
	transport.Register(mux, MethodRenewBatch, func(ctx context.Context, req RenewBatchReq) (RenewBatchResp, error) {
		resp := RenewBatchResp{Items: make([]RenewItemResp, len(req.Items))}
		for i, it := range req.Items {
			l, err := r.renewLease(ctx, lease.ID(it.LeaseID), time.Duration(it.DurMillis)*time.Millisecond)
			if err != nil {
				resp.Items[i].Err = err.Error()
				continue
			}
			resp.Items[i].DurMillis = l.Duration.Milliseconds()
		}
		if req.WantObs {
			resp.Obs = r.obsReport()
		}
		return resp, nil
	})
	transport.Register(mux, MethodApplyBatch, func(ctx context.Context, req ApplyBatchReq) (ApplyBatchResp, error) {
		resp := ApplyBatchResp{
			Installs: make([]InstallItemResp, len(req.Installs)),
			Revokes:  make([]RevokeItemResp, len(req.Revokes)),
		}
		for i, ins := range req.Installs {
			id, err := r.InstallCtx(ctx, ins.Signed, ins.BaseAddr, time.Duration(ins.DurMillis)*time.Millisecond)
			if err != nil {
				resp.Installs[i].Err = err.Error()
				continue
			}
			resp.Installs[i].LeaseID = string(id)
		}
		for i, name := range req.Revokes {
			if err := r.Withdraw(ctx, name); err != nil && !errors.Is(err, ErrNotInstalled) {
				resp.Revokes[i].Err = err.Error()
			}
		}
		return resp, nil
	})
}

// renewNodeBatch is the scheduler's BatchRenewFunc: it renews every due lease
// held at node in one midas.renewBatch call. A call-level error fails the
// whole batch — the scheduler's retry pacing takes over from there.
func (b *Base) renewNodeBatch(node string, items []lease.BatchItem) ([]lease.BatchResult, error) {
	metas, ok := b.renewMeta(node, items)
	if !ok {
		return nil, fmt.Errorf("core: node %s is no longer tracked", node)
	}

	m, tr, wantObs := b.renewRefs()
	var sp *trace.Span
	if len(items) == 1 {
		// A lone renewal is one "lease.renew" span in the trace that
		// installed the extension, parent of its RPC.
		sp = tr.StartSpanFrom(metas[0].sc, "lease.renew")
		sp.Tag("ext", metas[0].ext)
		sp.Tag("node", metas[0].nodeID)
	} else {
		sp = tr.StartSpanFrom(trace.SpanContext{}, "lease.renewBatch")
		sp.Tag("node", node)
		// A tag, not an annotation: tags on a sampled-out span are free (the
		// pool keeps their backing array), while Annotatef pays fmt on every
		// batch.
		sp.Tag("leases", strconv.Itoa(len(items)))
	}
	req := RenewBatchReq{Items: make([]RenewExtReq, len(items)), WantObs: wantObs}
	for i, it := range items {
		req.Items[i] = RenewExtReq{LeaseID: string(it.ID), DurMillis: b.cfg.LeaseDur.Milliseconds()}
	}
	rctx, cancel := context.WithTimeout(context.Background(), b.cfg.CallTimeout)
	if sc := sp.Context(); sc.TraceID != "" {
		// Parent the rpc.call span under this span. Besides the trace tree
		// reading right, a sampled-out child rides the context's decision
		// instead of minting a root trace ID per call on the shared RNG.
		rctx = trace.NewContext(rctx, sc)
	}
	resp, err := transport.Invoke[RenewBatchReq, RenewBatchResp](rctx, b.caller, node, MethodRenewBatch, req)
	cancel()
	if err != nil {
		sp.End(err)
		return nil, err
	}
	m.renewBatches.Inc()
	m.renewBatchLeases.Add(uint64(len(items)))
	b.mergeObs(node, resp.Obs)

	out := make([]lease.BatchResult, len(items))
	for i, it := range items {
		out[i] = lease.BatchResult{ID: it.ID}
		var ierr error
		if i >= len(resp.Items) {
			ierr = fmt.Errorf("core: renew batch to %s: truncated response", node)
		} else if resp.Items[i].Err != "" {
			ierr = transport.NewRemoteError(MethodRenewBatch, resp.Items[i].Err)
		} else {
			out[i].Granted = time.Duration(resp.Items[i].DurMillis) * time.Millisecond
			if out[i].Granted <= 0 {
				out[i].Granted = b.cfg.LeaseDur
			}
		}
		out[i].Err = ierr
		if len(items) > 1 {
			// Each lease's renewal is still a span of the trace that
			// installed the extension.
			meta := metas[i]
			lsp := tr.StartSpanFrom(meta.sc, "lease.renew")
			lsp.Tag("ext", meta.ext)
			lsp.Tag("node", meta.nodeID)
			lsp.End(ierr)
		}
	}
	if len(items) == 1 {
		sp.End(out[0].Err)
	} else {
		sp.End(nil)
	}
	return out, nil
}

// renewMeta snapshots per-lease trace metadata under the node's shard lock.
// The result is a slice aligned with items — this runs for every due batch
// across the fleet, and the map it used to build was the renewal window's
// single biggest allocation.
func (b *Base) renewMeta(node string, items []lease.BatchItem) ([]renewItemMeta, bool) {
	s := b.nodes.shard(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.adapted[node]
	if n == nil {
		return nil, false
	}
	meta := make([]renewItemMeta, len(items))
	for i, it := range items {
		for name, g := range n.grants {
			if g.leaseID == it.ID {
				meta[i] = renewItemMeta{ext: name, nodeID: n.id, sc: n.spanCtxs[name]}
				break
			}
		}
	}
	return meta, true
}

type renewItemMeta struct {
	ext    string
	nodeID string
	sc     trace.SpanContext
}

// applyToNode delivers installs and revokes to one node in one
// midas.applyBatch exchange and returns per-extension outcomes. It counts
// them too: base.pushes for each install whose grant the base now keeps
// alive, base.push_errors for each that failed, base.revokes for each revoke
// that succeeded. A lone install is a "base.push" span and a lone revoke a
// "base.revoke" span in the trace that installed the extension, so a single
// operation's trace names what it did; several share one "base.pushBatch"
// span, which carries the first failure as its error.
func (b *Base) applyToNode(ctx context.Context, n *adaptedNode, installs []Extension, revokes []string) (installErrs, revokeErrs map[string]error) {
	installErrs = make(map[string]error, len(installs))
	revokeErrs = make(map[string]error, len(revokes))
	if len(installs)+len(revokes) == 0 {
		return installErrs, revokeErrs
	}

	m := b.metricsRef()
	defer func() {
		for _, err := range installErrs {
			if err != nil {
				m.pushErrors.Inc()
			}
		}
		for _, err := range revokeErrs {
			if err == nil {
				m.revokes.Inc()
			}
		}
	}()
	tr := b.traceRef()
	spanName, extName := "base.pushBatch", ""
	switch {
	case len(installs) == 1 && len(revokes) == 0:
		spanName, extName = "base.push", installs[0].Name
	case len(installs) == 0 && len(revokes) == 1:
		spanName, extName = "base.revoke", revokes[0]
		ctx = trace.NewContext(ctx, b.pushSpanCtx(n.addr, extName))
	}
	pctx, sp := tr.StartSpan(ctx, spanName)
	sp.Tag("node", n.id)
	if extName != "" {
		sp.Tag("ext", extName)
	} else {
		sp.Annotatef("%d installs, %d revokes", len(installs), len(revokes))
	}

	req := ApplyBatchReq{Revokes: revokes}
	sent := make([]Extension, 0, len(installs))
	var firstErr error
	for _, ext := range installs {
		signed, err := b.signedFor(ext)
		if err != nil {
			installErrs[ext.Name] = err
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		req.Installs = append(req.Installs, InstallReq{
			Signed:    signed,
			BaseAddr:  b.cfg.Addr,
			DurMillis: b.cfg.LeaseDur.Milliseconds(),
		})
		sent = append(sent, ext)
	}
	if len(req.Installs)+len(req.Revokes) == 0 {
		sp.End(firstErr)
		return installErrs, revokeErrs
	}

	ictx, cancel := context.WithTimeout(pctx, b.cfg.CallTimeout)
	resp, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ictx, b.caller, n.addr, MethodApplyBatch, req)
	cancel()
	if err != nil {
		sp.End(err)
		werr := fmt.Errorf("core: apply batch to %s: %w", n.addr, err)
		for _, ext := range sent {
			installErrs[ext.Name] = werr
		}
		for _, name := range revokes {
			revokeErrs[name] = werr
		}
		return installErrs, revokeErrs
	}
	m.pushBatches.Inc()
	// Capture the identity before End: a sampled-out span is recycled there,
	// and Context on the recycled handle would mint an ID for whatever span
	// owns the pooled storage next.
	pushSC := sp.Context()

	for i, ext := range sent {
		if i >= len(resp.Installs) {
			installErrs[ext.Name] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
			firstErr = cmp.Or(firstErr, installErrs[ext.Name])
			continue
		}
		if e := resp.Installs[i].Err; e != "" {
			installErrs[ext.Name] = fmt.Errorf("core: push %q to %s: %w", ext.Name, n.addr, transport.NewRemoteError(MethodApplyBatch, e))
			firstErr = cmp.Or(firstErr, installErrs[ext.Name])
			continue
		}
		installErrs[ext.Name] = nil
		g := grantInfo{
			version:  ext.Version,
			leaseID:  lease.ID(resp.Installs[i].LeaseID),
			dur:      b.cfg.LeaseDur,
			deadline: b.cfg.Clock.Now().Add(b.cfg.LeaseDur),
		}
		if !b.trackGrant(n, ext.Name, g, b.cfg.LeaseDur, pushSC) {
			// The node departed (or the base closed) while the push was in
			// flight: there is no tracked node to keep alive, so no renewal
			// is scheduled — the receiver's lease will lapse on its own.
			m.pushErrors.Inc()
			sp.Annotatef("%s: node gone mid-push; lease left to expire", ext.Name)
			continue
		}
		m.pushes.Inc()
	}
	for i, name := range revokes {
		if i >= len(resp.Revokes) {
			revokeErrs[name] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
		} else if e := resp.Revokes[i].Err; e != "" {
			revokeErrs[name] = transport.NewRemoteError(MethodApplyBatch, e)
		} else {
			revokeErrs[name] = nil
			continue
		}
		firstErr = cmp.Or(firstErr, revokeErrs[name])
	}
	sp.End(firstErr)
	return installErrs, revokeErrs
}
