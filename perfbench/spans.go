package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Start and End are nanoseconds since the
// recorder's epoch. Trace is the program's trace ID the call ran under (empty
// when the program tracer is off); it links spans of one request across
// fabrics that do not carry a Go context.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Peer   string `json:"peer,omitempty"`
	Err    bool   `json:"err,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the length of a run; write puts them
// out once the run has ended.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)} //lint:allow clockcheck (the benchmark measures wall-clock time)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a span under whatever span ctx carries and returns the
// context its callees should run under.
func (r *recorder) begin(ctx context.Context, name, node, traceID string) (context.Context, span) {
	id := r.next.Add(1)
	sp := span{ID: id, Parent: spanFrom(ctx), Name: name, Node: node, Trace: traceID, Start: r.now()}
	return context.WithValue(ctx, spanKey{}, id), sp
}

// end closes sp and keeps it.
func (r *recorder) end(sp span) {
	sp.End = r.now()
	r.add(sp)
}

// add keeps a span timed elsewhere, giving it an ID if it has none.
func (r *recorder) add(sp span) {
	if sp.ID == 0 {
		sp.ID = r.next.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the spans at path as gzipped JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, sp := range r.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// spanFrom returns the benchmark span ctx runs under, or 0.
func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child running past its parent's end counts only up to that end).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1) // current merged interval
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if cur >= 0 && a <= curEnd {
				curEnd = max(curEnd, b)
				continue
			}
			if cur >= 0 {
				covered += curEnd - cur
			}
			cur, curEnd = a, b
		}
		if cur >= 0 {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}
