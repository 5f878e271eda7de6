package marketing

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// ServerLimits bound each request's claim on the server: wall time, body
// size, and concurrency. They are the server-side half of graceful
// degradation — past the in-flight cap the server sheds with 429 instead of
// queueing into collapse.
type ServerLimits struct {
	// RequestTimeout caps one request's wall time (503 past it). Zero
	// disables the cap. POST /v1/deliver has its own cap, deliverTimeout.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (413 past it). Zero disables.
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests (429 past it). Zero
	// disables shedding.
	MaxInFlight int
}

// DefaultServerLimits are generous for the in-process simulator: wide
// enough that no healthy workload hits them, tight enough that a stuck or
// abusive one is contained.
func DefaultServerLimits() ServerLimits {
	return ServerLimits{
		RequestTimeout: 60 * time.Second,
		MaxBodyBytes:   16 << 20,
		MaxInFlight:    256,
	}
}

// ServerOption tunes a Server at construction.
type ServerOption func(*Server)

// WithLimits replaces the default request limits.
func WithLimits(l ServerLimits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// Persister is the durability barrier a state store provides: Barrier
// returns once every platform mutation applied so far is persistent.
type Persister interface {
	Barrier(ctx context.Context) error
}

// WithPersister makes every mutating endpoint wait for durability before
// acking: the response is written only after the mutation's WAL record is
// flushed (persist-before-respond). A failed barrier turns into a 503,
// which the idempotency cache deliberately does not memoize, so the
// client's retry re-executes once the store recovers.
func WithPersister(p Persister) ServerOption {
	return func(s *Server) { s.persist = p }
}

// WithRegistry shares a metrics registry with the server instead of the
// private default, so store and HTTP metrics land in one GET /metrics.
func WithRegistry(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// WithPrivacy sets the response-privatization policy for GET /v1/insights.
// The default (and the zero Config) is privacy off: raw reports, wire bytes
// identical to the pre-privacy API. In a sharded fleet this option belongs
// on the coordinator, not on shard servers — see the merge-then-privatize
// rule in package privacy.
func WithPrivacy(cfg privacy.Config) ServerOption {
	return func(s *Server) { s.privacy.Store(&cfg) }
}

// deliverTimeout caps POST /v1/deliver instead of RequestTimeout, on every
// backend: a delivery day is a whole simulated day of auctions, and in a
// fleet it is hundreds of fan-out RPCs plus whole-day restarts after a shard
// crash.
const deliverTimeout = 15 * time.Minute

// Server serves a Backend as the HTTP marketing API. Over a platform
// (NewServer) it is one adplatform process and also serves the shard
// delivery protocol the coordinator drives; over the coordinator
// (coordinator.NewRouter) it is the fleet's router. It is safe for
// concurrent use and adds no locking of its own: the platform serializes
// mutating calls behind its account lock (as a real API would serialize
// per-account writes) and the coordinator serializes its fan-outs. Every
// endpoint is instrumented into the server's metrics registry, exposed at
// GET /metrics with a liveness probe at GET /healthz.
//
// The handler chain hardens every endpoint: in-flight load shedding,
// idempotency-key deduplication on mutating routes, panic recovery,
// per-request timeouts, and request-body limits, each counted in the
// registry.
type Server struct {
	b Backend
	// p is the platform behind b, nil for any other backend. Only a
	// platform server speaks the shard protocol and dumps /debug/state.
	p       *platform.Platform
	reg     *obs.Registry
	limits  ServerLimits
	idem    *idemCache
	persist Persister
	// privacy holds the insights privatization policy. Atomic so the audit
	// sweep can switch levels on a live server between (read-only) insights
	// queries without a restart; nil and the zero Config both mean off.
	privacy atomic.Pointer[privacy.Config]
}

// NewServer serves one platform.
func NewServer(p *platform.Platform, opts ...ServerOption) (*Server, error) {
	if p == nil {
		return nil, fmt.Errorf("marketing: nil platform")
	}
	s, err := NewBackendServer(platformBackend{p}, opts...)
	if err != nil {
		return nil, err
	}
	s.p = p
	return s, nil
}

// NewBackendServer serves any Backend. A backend that privatizes insights
// itself (the coordinator merges, then privatizes) leaves the server's
// privacy policy off; PrivatizeInsights never privatizes a response twice.
func NewBackendServer(b Backend, opts ...ServerOption) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("marketing: nil backend")
	}
	s := &Server{b: b, reg: obs.NewRegistry(), limits: DefaultServerLimits(), idem: newIdemCache()}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Metrics returns the server's metrics registry (the data behind
// GET /metrics), for in-process consumers like shutdown logging.
func (s *Server) Metrics() *obs.Registry {
	return s.reg
}

// SetPrivacy replaces the insights privatization policy at runtime.
// Privatization is response-time and stateless, so switching levels needs no
// restart and touches no delivery state — the audit sweep leans on this to
// re-read the same campaign's insights at several privacy levels.
func (s *Server) SetPrivacy(cfg privacy.Config) {
	s.privacy.Store(&cfg)
}

// privacyConfig returns the active policy (zero Config when unset).
func (s *Server) privacyConfig() privacy.Config {
	if p := s.privacy.Load(); p != nil {
		return *p
	}
	return privacy.Config{}
}

// Handler returns the API routing table with per-endpoint instrumentation
// and the resilience chain. Outside-in per route: instrumentation → load
// shedding → idempotency (mutating routes only) → panic recovery → request
// timeout → body limit → handler. Shedding sits outside idempotency so a
// shed request consumes nothing; recovery sits outside the timeout because
// http.TimeoutHandler re-panics handler panics in the serving goroutine.
// The mux is returned so a frontend can add operator routes of its own.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, fn http.HandlerFunc) {
		timeout := s.limits.RequestTimeout
		if pattern == "POST /v1/deliver" {
			timeout = deliverTimeout
		}
		var h http.Handler = fn
		h = obs.BodyLimit(s.limits.MaxBodyBytes, h)
		h = obs.Timeout(s.reg, timeout, h)
		h = obs.Recover(s.reg, h)
		if strings.HasPrefix(pattern, "POST ") {
			h = s.idem.middleware(s.reg, h)
		}
		h = obs.LoadShed(s.reg, s.limits.MaxInFlight, h)
		mux.Handle(pattern, obs.Instrument(s.reg, pattern, h))
	}
	handle("POST /v1/customaudiences", s.handleCreateAudience)
	handle("POST /v1/campaigns", s.handleCreateCampaign)
	handle("POST /v1/ads", s.handleCreateAd)
	handle("POST /v1/ads/{id}/appeal", s.handleAppeal)
	handle("GET /v1/ads/{id}", s.handleGetAd)
	handle("POST /v1/deliver", s.handleDeliver)
	handle("GET /v1/insights", s.handleInsights)
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	mux.Handle("GET /healthz", obs.HealthzHandler(s.reg))
	// Operational census, not part of the advertiser API: the crash-recovery
	// smoke test diffs it across a kill/restart.
	mux.HandleFunc("GET /debug/inventory", s.handleInventory)
	if s.p == nil {
		return mux
	}
	// Shard-scoped delivery protocol (see shard.go): the coordinator's
	// operator plane, not part of the advertiser API.
	handle("POST /v1/shard/delivery/begin", s.handleBeginDay)
	handle("POST /v1/shard/delivery/tick", s.handleDayTick)
	handle("POST /v1/shard/delivery/finish", s.handleFinishDay)
	handle("POST /v1/shard/delivery/abort", s.handleAbortDay)
	// Rejoin handshake: state digest + census for the supervisor's
	// digest-gated readmission of a resurrected shard.
	handle("GET /v1/shard/status", s.handleShardStatus)
	// Full serialized account state — the exact bytes the rejoin digest
	// hashes. A digest-gate failure is undiagnosable from the hash alone;
	// diffing two shards' /debug/state dumps names the diverging field.
	mux.HandleFunc("GET /debug/state", s.handleState)
	return mux
}

// persisted waits for the durability barrier before a mutating response is
// acked. On failure it writes the 503 and reports false; without a
// configured persister it is a no-op.
func (s *Server) persisted(w http.ResponseWriter, r *http.Request) bool {
	if s.persist == nil {
		return true
	}
	if err := s.persist.Barrier(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("marketing: durability barrier: %w", err))
		return false
	}
	return true
}

// respond writes a backend call's outcome: the error mapped to its status,
// or v — for a mutation, only once the durability barrier has passed.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, code int, v any, err error, mutation bool) {
	if err != nil {
		writeBackendError(w, err)
		return
	}
	if mutation && !s.persisted(w, r) {
		return
	}
	writeJSON(w, code, v)
}

// crudContext carries the caller's idempotency key to the backend, which
// in a fleet forwards it to every shard. Only the four CRUD mutations carry
// it: a delivery day sends many requests per shard, and one shared key
// would replay the first answer for all of them.
func crudContext(r *http.Request) context.Context {
	return WithIdempotencyKey(r.Context(), r.Header.Get(IdempotencyKeyHeader))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding failures after the header is written can only be logged by
	// the caller's transport; the types here are all marshalable.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func decode[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("marketing: request body exceeds %d bytes", tooBig.Limit))
			return v, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: malformed request: %w", err))
		return v, false
	}
	return v, true
}

func (s *Server) handleCreateAudience(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[CreateAudienceRequest](w, r)
	if !ok {
		return
	}
	resp, err := s.b.CreateAudience(crudContext(r), req)
	s.respond(w, r, http.StatusCreated, resp, err, true)
}

func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[CreateCampaignRequest](w, r)
	if !ok {
		return
	}
	resp, err := s.b.CreateCampaign(crudContext(r), req)
	s.respond(w, r, http.StatusCreated, resp, err, true)
}

func (s *Server) handleCreateAd(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[CreateAdRequest](w, r)
	if !ok {
		return
	}
	resp, err := s.b.CreateAd(crudContext(r), req)
	s.respond(w, r, http.StatusCreated, resp, err, true)
}

func (s *Server) handleAppeal(w http.ResponseWriter, r *http.Request) {
	resp, err := s.b.AppealAd(crudContext(r), r.PathValue("id"))
	s.respond(w, r, http.StatusOK, resp, err, true)
}

func (s *Server) handleGetAd(w http.ResponseWriter, r *http.Request) {
	resp, err := s.b.GetAd(r.Context(), r.PathValue("id"))
	s.respond(w, r, http.StatusOK, resp, err, false)
}

func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[DeliverRequest](w, r)
	if !ok {
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("workers must be non-negative, got %d", req.Workers))
		return
	}
	resp, err := s.b.Deliver(r.Context(), req)
	s.respond(w, r, http.StatusOK, resp, err, true)
}

func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	inv, err := s.b.Inventory(r.Context())
	s.respond(w, r, http.StatusOK, inv, err, false)
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.p.State())
}

func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request) {
	adID := r.URL.Query().Get("ad_id")
	if adID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: ad_id query parameter required"))
		return
	}
	var dims []string
	if raw := r.URL.Query().Get("breakdown"); raw != "" {
		dims = strings.Split(raw, ",")
		for _, d := range dims {
			if d != "age" && d != "gender" && d != "region" {
				writeError(w, http.StatusBadRequest, fmt.Errorf("marketing: unknown breakdown dimension %q", d))
				return
			}
		}
	}
	resp, err := s.b.Insights(r.Context(), adID, dims)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PrivatizeInsights(s.privacyConfig(), resp))
}

// ServeUntilSignal serves srv on ln until the listener fails or SIGINT or
// SIGTERM arrives. It then drains in-flight requests for up to drain, cuts
// whatever is left, and returns the drain's and the listener's errors. A
// second signal during the drain kills the process.
func ServeUntilSignal(srv *http.Server, ln net.Listener, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Printf("signal received, draining in-flight requests (budget %s)...\n", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	var drainErr error
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The drain budget ran out, most likely on a delivery day still in
		// flight. Cut the remaining connections so the caller's own
		// shutdown (a store flush, the final metrics) still runs.
		drainErr = fmt.Errorf("drain timed out after %s (in-flight requests cut): %w", drain, err)
		_ = srv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		drainErr = errors.Join(drainErr, err)
	}
	return drainErr
}
