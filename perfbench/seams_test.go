package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

type nopPersister struct{}

func (nopPersister) Barrier(context.Context) error { return nil }

// A traced client call yields client → server → barrier spans of one
// request, and the transport counts the call and its latency class.
func TestSeamsLinkSpansAcrossTheHop(t *testing.T) {
	tr := newTracer()
	persister := tracedPersister{p: nopPersister{}, t: tr}
	h := wrapServer(tr, "marketing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := persister.Barrier(r.Context()); err != nil {
			t.Error(err)
		}
		io.WriteString(w, `{"id":"ca-1","matched_size":1}`)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	ct := &ClientTransport{Base: http.DefaultTransport, Tracer: tr}
	ct.StartRecording()
	root := tr.begin("op.create_audience", SpanRef{})
	req, _ := http.NewRequestWithContext(withSpan(context.Background(), root.Ref()), http.MethodPost, srv.URL+"/v1/customaudiences", strings.NewReader("{}"))
	resp, err := ct.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	root.end()
	samples, attempted, failed, _ := ct.StopRecording()
	if attempted != 1 || failed != 0 || len(samples[ClassWrite]) != 1 {
		t.Fatalf("attempted %d failed %d samples %v", attempted, failed, samples)
	}

	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	client, server, barrier := byName["client.create_audience"], byName["marketing.create_audience"], byName["store.barrier"]
	if client.Parent != root.ID || server.Parent != client.ID || barrier.Parent != server.ID {
		t.Fatalf("span chain broken: %+v", byName)
	}
	for _, s := range []Span{client, server, barrier} {
		if s.Req != root.ID {
			t.Fatalf("span %s has request %d, want %d", s.Name, s.Req, root.ID)
		}
	}
	if !(client.Start <= server.Start && server.End <= client.End) {
		t.Fatalf("server span %v..%v not inside client span %v..%v", server.Start, server.End, client.Start, client.End)
	}
	layers := map[string]float64{}
	addSpanLayers(layers, tr.Spans(), "marketing")
	if layers["marketing.create_audience.hop_ms"] < 0 || layers["marketing.create_audience.server_ms"] <= 0 {
		t.Fatalf("layers %v", layers)
	}
}

// Untraced requests pass the seams untouched.
func TestUntracedRequestsOpenNoSpans(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(wrapServer(tr, "marketing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(spanHeader) != "" {
			t.Error("untraced request carried a span header")
		}
	})))
	defer srv.Close()
	ct := &ClientTransport{Base: http.DefaultTransport, Tracer: tr, Traced: func() bool { return false }}
	resp, err := (&http.Client{Transport: ct}).Get(srv.URL + "/v1/insights?ad_id=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("%d spans recorded for an untraced request", n)
	}
}

func TestOpsAndRPCsAreClassified(t *testing.T) {
	for _, c := range []struct {
		method, path, op, rpc string
		class                 Class
	}{
		{"POST", "/v1/customaudiences", "create_audience", "crud", ClassWrite},
		{"POST", "/v1/campaigns", "create_campaign", "crud", ClassWrite},
		{"POST", "/v1/ads", "create_ad", "crud", ClassWrite},
		{"POST", "/v1/deliver", "deliver", "other", ClassDeliver},
		{"GET", "/v1/insights", "insights", "read", ClassRead},
		{"POST", "/v1/shard/delivery/tick", "tick", "tick", ClassWrite},
		{"POST", "/v1/shard/delivery/begin", "begin", "begin", ClassWrite},
	} {
		op := apiOp(c.method, c.path)
		if op != c.op || rpcKind(c.method, c.path) != c.rpc || (op != "tick" && op != "begin" && opClass(op) != c.class) {
			t.Errorf("%s %s: op %q rpc %q class %q", c.method, c.path, op, rpcKind(c.method, c.path), opClass(op))
		}
	}
}

func TestCheckInsightsAllowsNoiseOnlyWhenPrivatized(t *testing.T) {
	dp := privacy.Config{Level: privacy.LevelKAnonDP, K: 10, Epsilon: 1}
	raw := &marketing.InsightsResponse{AdID: "a", Impressions: 100, Reach: 103, SpendCents: 150}
	if checkInsights(raw, 200, dp) == "" {
		t.Fatal("raw response with reach > impressions passed")
	}
	noisy := *raw
	noisy.Privacy = &marketing.WirePrivacy{Level: "k-anon+dp"}
	if msg := checkInsights(&noisy, 200, dp); msg != "" {
		t.Fatalf("privatized response within the noise bound failed: %s", msg)
	}
	noisy.Reach = noisy.Impressions + 2*privacy.NoiseBound(1) + 1
	if checkInsights(&noisy, 200, dp) == "" {
		t.Fatal("privatized response beyond twice the noise bound passed")
	}
	over := &marketing.InsightsResponse{AdID: "b", Impressions: 10, Reach: 5, SpendCents: 200.5}
	if checkInsights(over, 200, privacy.Config{}) == "" {
		t.Fatal("spend over budget passed")
	}
}
