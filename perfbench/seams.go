package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/marketing"
)

// The benchmark times the program only at seams it already exposes: the
// API client's transport, the servers' http.Handlers, the store barrier the
// marketing server waits on, and the coordinator's backend transport. Each
// wrapper below opens a span when the request it sees is traced and passes
// the span on — as a context value inside a process hop, as a header across
// an HTTP hop.

// apiOp names an advertiser API call by method and path.
func apiOp(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/customaudiences":
		return "create_audience"
	case method == http.MethodPost && path == "/v1/campaigns":
		return "create_campaign"
	case method == http.MethodPost && path == "/v1/ads":
		return "create_ad"
	case method == http.MethodPost && path == "/v1/deliver":
		return "deliver"
	case method == http.MethodGet && path == "/v1/insights":
		return "insights"
	case strings.HasPrefix(path, "/v1/shard/delivery/"):
		return strings.TrimPrefix(path, "/v1/shard/delivery/")
	}
	return "other"
}

// opClass maps an advertiser API op to its latency class.
func opClass(op string) Class {
	switch op {
	case "insights":
		return ClassRead
	case "deliver":
		return ClassDeliver
	}
	return ClassWrite
}

// ClientTransport wraps the API client's transport. It counts every round
// trip and its outcome, optionally records per-class latency (the closed-loop
// audit, where a request is due when it is sent), and opens a client span
// for traced requests.
type ClientTransport struct {
	Base   http.RoundTripper
	Tracer *Tracer
	// Traced reports whether a request should be traced when its context
	// names no parent span; nil means never.
	Traced func() bool
	// Parent names the parent span for requests whose context has none.
	Parent func() SpanRef

	mu        sync.Mutex
	recording bool
	origin    time.Time
	samples   map[Class][]Sample
	attempted int
	failed    int
	serverErr int
}

// StartRecording begins collecting latency samples and outcome counts,
// with due offsets measured from now.
func (t *ClientTransport) StartRecording() {
	t.mu.Lock()
	t.recording, t.origin = true, time.Now()
	t.samples = map[Class][]Sample{}
	t.attempted, t.failed, t.serverErr = 0, 0, 0
	t.mu.Unlock()
}

// StopRecording ends collection and returns what was collected.
func (t *ClientTransport) StopRecording() (samples map[Class][]Sample, attempted, failed, serverErr int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recording = false
	return t.samples, t.attempted, t.failed, t.serverErr
}

// RoundTrip implements http.RoundTripper.
func (t *ClientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := apiOp(req.Method, req.URL.Path)
	var sp *OpenSpan
	if t.Tracer != nil {
		parent, ok := spanFrom(req.Context())
		if !ok && t.Traced != nil && t.Traced() {
			if t.Parent != nil {
				parent = t.Parent()
			}
			ok = true
		}
		if ok {
			sp = t.Tracer.begin("client."+op, parent)
		}
	}
	start := time.Now()
	resp, err := t.Base.RoundTrip(outbound(req, sp))
	finish := func() {
		end := time.Now()
		sp.end()
		t.record(op, start, end, resp, err)
	}
	if err != nil {
		finish()
		return resp, err
	}
	// The call ends when the client has read the body and closed it.
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: finish}
	return resp, nil
}

func (t *ClientTransport) record(op string, start, end time.Time, resp *http.Response, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.recording {
		return
	}
	t.attempted++
	switch {
	case err != nil:
		t.failed++
	case resp.StatusCode >= 500:
		t.failed++
		t.serverErr++
	case resp.StatusCode >= 300:
		t.failed++
	}
	c := opClass(op)
	t.samples[c] = append(t.samples[c], Sample{Due: start.Sub(t.origin), Latency: end.Sub(start)})
}

// outbound is the request a wrapper passes to the transport it wraps, with
// the span header set for a traced request. An http.Client with a timeout
// hands a RoundTripper it does not know a legacy Request.Cancel channel, and
// http.Transport starts a goroutine per request to watch it; the request's
// context carries the same deadline, so the channel is dropped to keep that
// goroutine out of what is measured.
func outbound(req *http.Request, sp *OpenSpan) *http.Request {
	out := req.Clone(req.Context())
	out.Cancel = nil
	if sp != nil {
		out.Header.Set(spanHeader, formatSpanRef(sp.Ref()))
	}
	return out
}

// endOnClose runs end once, when the response body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// wrapServer times a server's handler: a request that arrives with a span
// header opens a server span named "<layer>.<op>" and carries it in the
// request context, where the store barrier and coordinator transport find
// it.
func wrapServer(t *Tracer, layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanRef(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin(layer+"."+apiOp(r.Method, r.URL.Path), parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.Ref())))
		sp.end()
	})
}

// tracedPersister times the store's durability barrier, the wait a mutating
// request spends between applying its mutation and being acked.
type tracedPersister struct {
	p marketing.Persister
	t *Tracer
}

func (tp tracedPersister) Barrier(ctx context.Context) error {
	parent, ok := spanFrom(ctx)
	if !ok {
		return tp.p.Barrier(ctx)
	}
	sp := tp.t.begin("store.barrier", parent)
	err := tp.p.Barrier(ctx)
	sp.end()
	return err
}

// rpcKind names a coordinator-to-shard RPC.
func rpcKind(method, path string) string {
	switch op := apiOp(method, path); op {
	case "begin", "tick", "finish":
		return op
	case "insights":
		return "read"
	case "create_audience", "create_campaign", "create_ad":
		return "crud"
	}
	return "other"
}

// coordTransport times the coordinator's shard RPCs. The coordinator passes
// the inbound request's context down to each RPC, so the router's server
// span is found there.
type coordTransport struct {
	base http.RoundTripper
	t    *Tracer
}

func (ct coordTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := spanFrom(req.Context())
	if !ok {
		return ct.base.RoundTrip(req)
	}
	sp := ct.t.begin("coordinator.rpc."+rpcKind(req.Method, req.URL.Path), parent)
	resp, err := ct.base.RoundTrip(outbound(req, sp))
	if err != nil {
		sp.end()
		return resp, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: sp.end}
	return resp, nil
}
