package marketing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
)

// Clock abstracts wall-clock reads and sleeps for the client's throttle,
// retry backoff, and circuit breaker, so load generators and tests can run
// rate-limited, retrying clients against a fake clock without real waits.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// realClock is the default Clock: the system clock.
type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// SystemClock is the real wall clock, the default when nothing is injected.
// Other packages that measure or pace time (the load generator) default to
// it and accept a replacement, keeping every timing decision routable
// through one injectable seam.
var SystemClock Clock = realClock{}

// Client-side metric names (recorded into the registry passed to
// SetMetrics).
const (
	// MetricClientRetries counts retried attempts (attempts beyond the
	// first for any call).
	MetricClientRetries = "client.retries"
	// MetricClientBreakerRejects counts calls refused locally because the
	// circuit breaker was open.
	MetricClientBreakerRejects = "client.breaker_rejects"
)

// ErrCircuitOpen is returned (wrapped) when the circuit breaker refuses a
// call without touching the network.
var ErrCircuitOpen = errors.New("marketing: circuit breaker open")

// RetryPolicy shapes the client's retry loop: exponential backoff with equal
// jitter, honoring server Retry-After hints.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call, including the
	// first. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. The actual wait is jittered uniformly
	// in [delay/2, delay] so synchronized clients do not stampede.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
}

// DefaultRetryPolicy mirrors the paper's polite collection posture: a few
// patient retries, never a stampede.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// BreakerPolicy configures the circuit breaker. After Threshold consecutive
// retryable failures (terminal API answers count as service-alive and reset
// the streak) the breaker opens for Cooldown: calls fail fast with
// ErrCircuitOpen instead of hammering a down platform. After Cooldown the
// next call probes; a failure re-opens the breaker.
type BreakerPolicy struct {
	Threshold int
	Cooldown  time.Duration
}

// DefaultBreakerPolicy tolerates a chaotic platform (transient fault rates
// well above anything a real API sustains) while still cutting off a dead
// one within a few seconds.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Threshold: 10, Cooldown: 5 * time.Second}
}

// Client is the advertiser-side API client the audit tooling uses. Requests
// are optionally rate-limited, mirroring the paper's polite data-collection
// posture (§4.1), and hardened against a flaky platform: every call takes a
// context, retries retryable failures with jittered exponential backoff
// (honoring Retry-After), attaches idempotency keys to mutating requests so
// a retried POST cannot double-create, and trips a circuit breaker after
// sustained failure.
type Client struct {
	baseURL string
	http    *http.Client

	mu          sync.Mutex
	clock       Clock
	minInterval time.Duration
	lastRequest time.Time
	retry       RetryPolicy
	breaker     BreakerPolicy
	consecFails int
	openUntil   time.Time
	rng         *rand.Rand
	reg         *obs.Registry

	idemBase string
	idemSeq  atomic.Uint64

	// journal records calls that needed retries, bounded (see retrylog.go).
	journal *retryJournal
}

// NewClient builds a client for the API at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("marketing: invalid base URL %q", baseURL)
	}
	return &Client{
		baseURL:  strings.TrimRight(baseURL, "/"),
		http:     &http.Client{Timeout: 10 * time.Minute},
		clock:    realClock{},
		retry:    DefaultRetryPolicy(),
		breaker:  DefaultBreakerPolicy(),
		rng:      rand.New(rand.NewSource(rand.Int63())),
		reg:      obs.NewRegistry(),
		idemBase: fmt.Sprintf("ck-%08x", rand.Uint32()),
		journal:  newRetryJournal(),
	}, nil
}

// APIError is a non-2xx response from the API.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, zero when absent. A
	// present-but-zero header (shed/injected 429s) still means "retryable
	// now", which Retryable reports via the status code.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("marketing: API error %d: %s", e.StatusCode, e.Message)
}

// Retryable classifies the status code: true for responses that a later
// identical request may survive (throttling, timeouts, server-side
// failures), false for terminal client errors (validation, not-found,
// oversized payloads) where retrying only repeats the rejection.
func (e *APIError) Retryable() bool {
	switch e.StatusCode {
	case http.StatusRequestTimeout, // 408
		http.StatusTooManyRequests,     // 429
		http.StatusInternalServerError, // 500
		http.StatusBadGateway,          // 502
		http.StatusServiceUnavailable,  // 503
		http.StatusGatewayTimeout:      // 504
		return true
	}
	return false
}

// Retryable reports whether err is worth retrying: retryable API statuses
// and transport-level failures (connection drops, truncated bodies) are;
// terminal API errors, context cancellation, and open-breaker rejections
// are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Retryable()
	}
	// Anything else got no HTTP answer at all: a network or truncation
	// failure, retryable by definition.
	return true
}

// SetMinInterval enforces a minimum delay between consecutive API requests.
// Zero disables throttling (the default; the in-process simulator needs no
// politeness, but external deployments of the platform server do).
func (c *Client) SetMinInterval(d time.Duration) {
	c.mu.Lock()
	c.minInterval = d
	c.mu.Unlock()
}

// SetClock replaces the clock behind the throttle, backoff, and breaker. A
// nil clock restores the system clock.
func (c *Client) SetClock(clock Clock) {
	if clock == nil {
		clock = realClock{}
	}
	c.mu.Lock()
	c.clock = clock
	c.mu.Unlock()
}

// SetRetryPolicy replaces the retry policy. A zero MaxAttempts restores the
// default policy.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts <= 0 {
		p = DefaultRetryPolicy()
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy().BaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// SetBreakerPolicy replaces the breaker policy. A zero Threshold restores
// the default; a negative Threshold disables the breaker.
func (c *Client) SetBreakerPolicy(p BreakerPolicy) {
	if p.Threshold == 0 {
		p = DefaultBreakerPolicy()
	}
	c.mu.Lock()
	c.breaker = p
	c.consecFails = 0
	c.openUntil = time.Time{}
	c.mu.Unlock()
}

// SetTransport replaces the client's underlying HTTP transport (nil
// restores the default). A router injects client-side network chaos — the
// faults.Transport with its seeded schedule and partition gate — onto its
// whole shard path this way. Call it before the client's first request; the
// transport is not guarded for mid-flight swaps.
func (c *Client) SetTransport(rt http.RoundTripper) {
	c.http.Transport = rt
}

// Healthz performs one liveness probe (GET /healthz): a single attempt with
// no retries, no backoff, and no breaker involvement, so a supervisor's
// probe loop observes the raw transport outcome on its own cadence.
func (c *Client) Healthz(ctx context.Context) error {
	return c.once(ctx, http.MethodGet, "/healthz", nil, "", nil)
}

// SetMetrics points the client's resilience counters (retries, breaker
// rejections) at reg, so a load generator can fold them into its report.
// Nil restores a private registry.
func (c *Client) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// Metrics returns the registry the client counts into.
func (c *Client) Metrics() *obs.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg
}

// throttle enforces the minimum interval between requests. It reserves the
// next send slot under the lock but sleeps OUTSIDE it, so one caller
// waiting out the interval does not serialize unrelated callers behind the
// mutex: concurrent callers each reserve consecutive slots and wait them
// out in parallel.
func (c *Client) throttle() {
	c.mu.Lock()
	if c.minInterval <= 0 {
		c.lastRequest = c.clock.Now()
		c.mu.Unlock()
		return
	}
	clock := c.clock
	now := clock.Now()
	slot := c.lastRequest.Add(c.minInterval)
	if slot.Before(now) {
		slot = now
	}
	c.lastRequest = slot
	wait := slot.Sub(now)
	c.mu.Unlock()
	if wait > 0 {
		clock.Sleep(wait)
	}
}

// breakerAllow refuses the call while the breaker is open.
func (c *Client) breakerAllow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breaker.Threshold < 0 || c.openUntil.IsZero() {
		return nil
	}
	if c.clock.Now().Before(c.openUntil) {
		c.reg.Counter(MetricClientBreakerRejects).Inc()
		return fmt.Errorf("%w (until %s)", ErrCircuitOpen, c.openUntil.Format(time.RFC3339))
	}
	// Cooldown elapsed: half-open. Clear the gate so a probe goes out; a
	// failure will re-open it.
	c.openUntil = time.Time{}
	return nil
}

// breakerRecord feeds one attempt outcome into the breaker. ok covers both
// 2xx and terminal API answers: the service responded, the circuit is fine.
func (c *Client) breakerRecord(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.consecFails = 0
		return
	}
	c.consecFails++
	if c.breaker.Threshold > 0 && c.consecFails >= c.breaker.Threshold {
		c.openUntil = c.clock.Now().Add(c.breaker.Cooldown)
		c.consecFails = 0
	}
}

// backoffDelay computes the jittered wait before retry number `retry`
// (1-based), raised to the server's Retry-After hint when that is larger.
func (c *Client) backoffDelay(retry int, retryAfter time.Duration) time.Duration {
	c.mu.Lock()
	p := c.retry
	jitter := c.rng.Float64()
	c.mu.Unlock()
	d := p.BaseDelay << uint(retry-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Equal jitter: [d/2, d].
	d = d/2 + time.Duration(jitter*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// nextIdempotencyKey mints a key unique to this client instance and call.
func (c *Client) nextIdempotencyKey() string {
	return fmt.Sprintf("%s-%d", c.idemBase, c.idemSeq.Add(1))
}

// idemKeyContextKey carries an explicit idempotency key through a context.
type idemKeyContextKey struct{}

// WithIdempotencyKey returns a context that makes mutating calls under it
// carry the given idempotency key instead of a freshly minted one. A
// frontend that fans one inbound mutating request out to several backends
// forwards the inbound key this way: if the frontend's own response is lost
// and its caller retries, the re-executed fan-out deduplicates at every
// backend instead of double-creating on the shards that already executed.
func WithIdempotencyKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, idemKeyContextKey{}, key)
}

// IdempotencyKeyFrom returns the key WithIdempotencyKey put on ctx, or "".
func IdempotencyKeyFrom(ctx context.Context) string {
	k, _ := ctx.Value(idemKeyContextKey{}).(string)
	return k
}

// do runs one API call through the full resilience stack: breaker gate,
// throttle, attempt, classify, back off, retry. Mutating methods carry an
// idempotency key that stays constant across retries, so the server can
// deduplicate a retried create whose first response was lost.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("marketing: encoding request: %w", err)
		}
	}
	idemKey := ""
	if method != http.MethodGet {
		if idemKey = IdempotencyKeyFrom(ctx); idemKey == "" {
			idemKey = c.nextIdempotencyKey()
		}
	}
	c.mu.Lock()
	maxAttempts := c.retry.MaxAttempts
	clock := c.clock
	retries := c.reg.Counter(MetricClientRetries)
	evictions := c.reg.Counter(MetricRetryJournalEvictions)
	c.mu.Unlock()
	if maxAttempts <= 0 {
		maxAttempts = 1
	}

	// journal logs this call into the bounded retry journal; only calls
	// that actually retried are recorded.
	journal := func(attempts int, outcome string, lastErr error) {
		if attempts <= 1 {
			return
		}
		msg := ""
		if lastErr != nil {
			msg = lastErr.Error()
		}
		if c.journal.record(RetryEvent{
			Method:         method,
			Path:           path,
			IdempotencyKey: idemKey,
			Attempts:       attempts,
			Outcome:        outcome,
			LastError:      msg,
		}) {
			evictions.Inc()
		}
	}

	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.breakerAllow(); err != nil {
			return err
		}
		if attempt > 1 {
			retries.Inc()
		}
		c.throttle()
		err := c.once(ctx, method, path, body, idemKey, out)
		if err == nil {
			c.breakerRecord(true)
			journal(attempt, RetryRecovered, lastErr)
			return nil
		}
		lastErr = err
		if !Retryable(err) {
			// A terminal API answer proves the service is up and resets the
			// breaker streak; context cancellation says nothing about the
			// service and is not recorded at all.
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				c.breakerRecord(true)
			}
			journal(attempt, RetryTerminal, err)
			return err
		}
		c.breakerRecord(false)
		if attempt == maxAttempts {
			break
		}
		var retryAfter time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			retryAfter = apiErr.RetryAfter
		}
		clock.Sleep(c.backoffDelay(attempt, retryAfter))
	}
	journal(maxAttempts, RetryExhausted, lastErr)
	return fmt.Errorf("marketing: %s %s failed after %d attempts: %w", method, path, maxAttempts, lastErr)
}

// once performs a single HTTP attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, idemKey string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set(IdempotencyKeyHeader, idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("marketing: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	// Read the whole body before judging the response: a connection cut
	// mid-body (Content-Length mismatch) surfaces here as a read error and
	// must be treated as transport failure, not as a short success.
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("marketing: %s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr ErrorResponse
		msg := resp.Status
		if jsonErr := json.Unmarshal(payload, &apiErr); jsonErr == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{
			StatusCode: resp.StatusCode,
			Message:    msg,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.clockNow()),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("marketing: decoding response: %w", err)
	}
	return nil
}

// clockNow reads the injectable clock.
func (c *Client) clockNow() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock.Now()
}

// parseRetryAfter handles both forms of the header: delay-seconds and
// HTTP-date. Unparseable or absent values yield zero.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// CreateAudience uploads PII hashes and returns the matched audience.
func (c *Client) CreateAudience(ctx context.Context, name string, piiHashes []string) (*CreateAudienceResponse, error) {
	var out CreateAudienceResponse
	err := c.do(ctx, http.MethodPost, "/v1/customaudiences", CreateAudienceRequest{Name: name, PIIHashes: piiHashes}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateCampaign registers a campaign.
func (c *Client) CreateCampaign(ctx context.Context, req CreateCampaignRequest) (*CreateCampaignResponse, error) {
	var out CreateCampaignResponse
	if err := c.do(ctx, http.MethodPost, "/v1/campaigns", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateAd creates one ad and reports its review status.
func (c *Client) CreateAd(ctx context.Context, req CreateAdRequest) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ads", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AppealAd appeals a rejected ad.
func (c *Client) AppealAd(ctx context.Context, adID string) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodPost, "/v1/ads/"+url.PathEscape(adID)+"/appeal", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetAd fetches an ad's status.
func (c *Client) GetAd(ctx context.Context, adID string) (*AdResponse, error) {
	var out AdResponse
	if err := c.do(ctx, http.MethodGet, "/v1/ads/"+url.PathEscape(adID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Deliver runs the listed ads for one simulated day with the server's
// default delivery worker count.
func (c *Client) Deliver(ctx context.Context, adIDs []string, seed int64) error {
	return c.DeliverWorkers(ctx, adIDs, seed, 0)
}

// DeliverWorkers runs the listed ads for one simulated day with an explicit
// delivery worker count (0 defers to the server's default, 1 runs a single
// shard).
func (c *Client) DeliverWorkers(ctx context.Context, adIDs []string, seed int64, workers int) error {
	return c.do(ctx, http.MethodPost, "/v1/deliver", DeliverRequest{AdIDs: adIDs, Seed: seed, Workers: workers}, nil)
}

// Insights fetches the delivery report for an ad with the full
// age×gender×region breakdown.
func (c *Client) Insights(ctx context.Context, adID string) (*InsightsResponse, error) {
	var out InsightsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/insights?ad_id="+url.QueryEscape(adID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// InsightsBreakdown fetches the delivery report broken down by only the
// requested dimensions (any of "age", "gender", "region").
func (c *Client) InsightsBreakdown(ctx context.Context, adID string, dims ...string) (*InsightsResponse, error) {
	var out InsightsResponse
	path := "/v1/insights?ad_id=" + url.QueryEscape(adID) + "&breakdown=" + url.QueryEscape(strings.Join(dims, ","))
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
