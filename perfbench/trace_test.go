package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent uint64, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Req: 1, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "router.deliver", 0, 100),
		// Two shard RPCs in parallel: [10,50) and [30,70) cover 60ms once.
		span(2, 1, "rpc.tick", 10, 50),
		span(3, 1, "rpc.tick", 30, 70),
		// A child running past its parent counts only inside it.
		span(4, 1, "rpc.finish", 90, 120),
		// Grandchild: counted against its own parent, not the root.
		span(5, 2, "shard.tick", 20, 40),
	}
	st := selfTimes(spans)
	check := func(name string, count int, total, self float64) {
		t.Helper()
		s := st[name]
		if s == nil || s.Count != count || math.Abs(s.TotalMs-total) > 1e-9 || math.Abs(s.SelfMs-self) > 1e-9 {
			t.Fatalf("%s = %+v, want count %d total %v self %v", name, s, count, total, self)
		}
	}
	check("router.deliver", 1, 100, 30)
	check("rpc.tick", 2, 80, 60) // 40-20 + 40
	check("rpc.finish", 1, 30, 30)
	check("shard.tick", 1, 20, 20)
}

func TestCoveredMergesTouchingAndNestedIntervals(t *testing.T) {
	kids := []Span{span(1, 0, "a", 0, 10), span(2, 0, "b", 10, 20), span(3, 0, "c", 2, 5), span(4, 0, "d", 30, 40)}
	if got := covered(0, 100*time.Millisecond, kids); got != 30*time.Millisecond {
		t.Fatalf("covered = %v, want 30ms", got)
	}
	if got := covered(0, 100*time.Millisecond, nil); got != 0 {
		t.Fatalf("covered(no children) = %v, want 0", got)
	}
}

func TestSpanRefRoundTripsThroughHeader(t *testing.T) {
	ref := SpanRef{ID: 42, Req: 7}
	got, ok := parseSpanRef(formatSpanRef(ref))
	if !ok || got != ref {
		t.Fatalf("round trip = %+v %v, want %+v", got, ok, ref)
	}
	for _, bad := range []string{"", "7", "7.", ".3", "x.3", "7.0"} {
		if _, ok := parseSpanRef(bad); ok {
			t.Fatalf("parseSpanRef(%q) accepted", bad)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.begin("x", SpanRef{})
	sp.end()
	if sp.Ref() != (SpanRef{}) || tr.Spans() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", SpanRef{})
	child := tr.begin("child", root.Ref())
	child.end()
	root.end()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Parent != root.ID || spans[0].Req != root.ID || spans[1].Req != root.ID {
		t.Fatalf("spans = %+v, want child under root sharing its request ID", spans)
	}
}

func TestMeanTickSkewGroupsBarriers(t *testing.T) {
	ticks := []Span{
		// day 9: tick 0 on two shards (10ms vs 14ms), tick 1 (5ms vs 5ms)
		span(1, 9, "coordinator.rpc.tick", 0, 10),
		span(2, 9, "coordinator.rpc.tick", 1, 15),
		span(3, 9, "coordinator.rpc.tick", 16, 21),
		span(4, 9, "coordinator.rpc.tick", 16, 21),
	}
	if got := meanTickSkew(ticks, 2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean skew = %v ms, want 2", got)
	}
}
