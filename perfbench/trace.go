package main

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent links a span to the span that caused it (0 for a root).
type Span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      time.Duration // offsets from the tracer's origin
}

// SpanRef identifies an open span to its children.
type SpanRef struct {
	ID, Req uint64
}

// spanHeader carries a SpanRef across an HTTP hop as "<req>.<id>".
const spanHeader = "X-Perfbench-Span"

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay only a nil check at each boundary.
type Tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// OpenSpan is a span that has started and not yet ended.
type OpenSpan struct {
	Span
	t *Tracer
}

// Ref returns the handle children use to name this span as their parent.
func (o *OpenSpan) Ref() SpanRef {
	if o == nil {
		return SpanRef{}
	}
	return SpanRef{ID: o.ID, Req: o.Req}
}

// begin opens a span under parent. A zero parent starts a new request whose
// ID is the span's own.
func (t *Tracer) begin(name string, parent SpanRef) *OpenSpan {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	req := parent.Req
	if req == 0 {
		req = id
	}
	return &OpenSpan{Span: Span{ID: id, Parent: parent.ID, Req: req, Name: name, Start: time.Since(t.origin)}, t: t}
}

// end closes the span and keeps it.
func (o *OpenSpan) end() {
	if o == nil {
		return
	}
	o.End = time.Since(o.t.origin)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.Span)
	o.t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, ref SpanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) (SpanRef, bool) {
	ref, ok := ctx.Value(spanCtxKey{}).(SpanRef)
	return ref, ok && ref.ID != 0
}

func formatSpanRef(ref SpanRef) string {
	return strconv.FormatUint(ref.Req, 10) + "." + strconv.FormatUint(ref.ID, 10)
}

func parseSpanRef(s string) (SpanRef, bool) {
	req, id, ok := strings.Cut(s, ".")
	if !ok {
		return SpanRef{}, false
	}
	r, err1 := strconv.ParseUint(req, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil || i == 0 {
		return SpanRef{}, false
	}
	return SpanRef{ID: i, Req: r}, true
}

// SpanStats aggregates the spans of one name.
type SpanStats struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals (clipped to the span), so
// children that ran in parallel — one RPC per shard — are subtracted once.
func selfTimes(spans []Span) map[string]*SpanStats {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*SpanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += ms(dur)
		st.SelfMs += ms(dur - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
