package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// The advertiser of the serve and fleet workloads: it uploads an audience,
// creates a campaign and adsPerSession ads, delivers them, and polls each
// ad's insights pollRounds times — 4 writes, 1 delivery and 6 reads.
const (
	loadConns     = 2               // request-issuing workers, one connection each
	loadWarmup    = 2 * time.Second // arrivals before the measured window, excluded from timing
	audienceLen   = 200             // PII hashes uploaded per advertiser
	adsPerSession = 2
	pollRounds    = 3
	pollGap       = 20 * time.Millisecond
	adBudgetCents = 200 // per-ad daily budget
	// traceSlice alternates tracing by due time in slices of this length
	// (traced runs only), so the traced and untraced halves see the same
	// drift and their difference is the tracing overhead.
	traceSlice = 250 * time.Millisecond
)

// LoadShape is the open-loop traffic of one run.
type LoadShape struct {
	Rate   float64       // advertiser arrivals per second
	Window time.Duration // measured window
}

// session is one advertiser's generated input.
type session struct {
	arrival  time.Duration // from the start of the warm-up
	measured bool
	hashes   []string
	creative [adsPerSession]marketing.WireCreative
	seed     int64

	// filled in as the session runs
	audienceID string
	campaignID string
	adIDs      []string
	doneAt     time.Time
}

// makeSessions draws the advertiser arrivals from seed: a Poisson process
// conditioned on its count, i.e. a fixed number of arrivals placed uniformly
// at random in the warm-up and in the measured window.
func makeSessions(w *World, shape LoadShape, seed int64) ([]*session, error) {
	rng := rand.New(rand.NewSource(seed))
	specs, err := core.StockSpecs(1, seed)
	if err != nil {
		return nil, err
	}
	// Audiences are windows of one pool of hashed registry records, so the
	// generated input adds little to the heap the program's GC scans.
	pools := make([][]string, len(w.Registries))
	for i, reg := range w.Registries {
		pools[i] = w.piiHashes(i, 0, len(reg.Records)+audienceLen)
	}
	var out []*session
	add := func(from, span time.Duration, measured bool) {
		n := int(shape.Rate * span.Seconds())
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = from + time.Duration(rng.Int63n(int64(span)))
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, off := range offs {
			s := &session{arrival: off, measured: measured, seed: rng.Int63()}
			pool := pools[rng.Intn(len(pools))]
			at := rng.Intn(len(pool) - audienceLen)
			s.hashes = pool[at : at+audienceLen : at+audienceLen]
			for a := range s.creative {
				spec := specs[rng.Intn(len(specs))]
				s.creative[a] = marketing.WireCreative{
					Image:    marketing.WireImageFrom(spec.Image),
					Headline: "Considering a career in project management?",
					LinkURL:  "https://example.edu/project-management-career-guide",
				}
			}
			out = append(out, s)
		}
	}
	add(0, loadWarmup, false)
	add(loadWarmup, shape.Window, true)
	return out, nil
}

// LoadResult is what one open-loop run measured.
type LoadResult struct {
	Samples         map[Class][]Sample // measured sessions, due offsets from the window start
	TracedSamples   map[Class][]Sample // Samples split by whether the op was traced
	UntracedSamples map[Class][]Sample
	Attempted       int
	Failed          int
	ServerErrors    int
	Violations      []string
	AdsDone         int
	AdsSpan         time.Duration // window start to the last measured session's completion
	GenLag          []time.Duration
	ConnWait        []time.Duration
	Privatized      int
	SuppressedCell  int
}

// loadRun drives the sessions against the API at client.
type loadRun struct {
	client  *marketing.Client
	tracer  *Tracer
	privacy privacy.Config
	sched   *Scheduler
	start   time.Time // start of the warm-up
	winAt   time.Time // start of the measured window

	mu  sync.Mutex
	res LoadResult
}

// runLoad drives the sessions through client and returns what the measured
// window saw. atWindow runs when the measured window opens, so that callers
// can take their counter baselines there.
func runLoad(ctx context.Context, client *marketing.Client, sessions []*session, tracer *Tracer, priv privacy.Config, atWindow func()) LoadResult {
	lr := &loadRun{client: client, tracer: tracer, privacy: priv, sched: NewScheduler()}
	lr.res.Samples = map[Class][]Sample{}
	lr.res.TracedSamples = map[Class][]Sample{}
	lr.res.UntracedSamples = map[Class][]Sample{}
	lr.start = time.Now().Add(50 * time.Millisecond)
	lr.winAt = lr.start.Add(loadWarmup)
	lr.sched.Push(lr.winAt, func(time.Time, time.Time) { atWindow() })
	for _, s := range sessions {
		s := s
		lr.sched.Push(lr.start.Add(s.arrival), func(due, _ time.Time) { lr.createAudience(s, due) })
	}
	lr.sched.Run(ctx, loadConns)
	var last time.Time
	for _, s := range sessions {
		if s.measured && s.doneAt.After(last) {
			last = s.doneAt
		}
	}
	lr.res.AdsSpan = last.Sub(lr.winAt)
	lr.res.GenLag, lr.res.ConnWait = lr.sched.Lags()
	return lr.res
}

// traced reports whether the op due at due falls in a traced slice.
func (lr *loadRun) traced(due time.Time) bool {
	if lr.tracer == nil || due.Before(lr.winAt) {
		return false
	}
	return int(due.Sub(lr.winAt)/traceSlice)%2 == 1
}

// do runs one API call due at due, records its outcome and due-time latency,
// and reports whether it succeeded.
func (lr *loadRun) do(s *session, name string, due time.Time, call func(ctx context.Context) error) bool {
	ctx := context.Background()
	traced := lr.traced(due)
	var sp *OpenSpan
	if traced {
		sp = lr.tracer.begin("op."+name, SpanRef{})
		ctx = withSpan(ctx, sp.Ref())
	}
	err := call(ctx)
	end := time.Now()
	sp.end()
	if !s.measured {
		if err != nil {
			lr.violation(fmt.Sprintf("warm-up %s failed: %v", name, err))
		}
		return err == nil
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.res.Attempted++
	if err != nil {
		lr.res.Failed++
		var apiErr *marketing.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode >= 500 {
			lr.res.ServerErrors++
		}
		return false
	}
	c := opClass(name)
	smp := Sample{Due: due.Sub(lr.winAt), Latency: end.Sub(due)}
	lr.res.Samples[c] = append(lr.res.Samples[c], smp)
	if traced {
		lr.res.TracedSamples[c] = append(lr.res.TracedSamples[c], smp)
	} else {
		lr.res.UntracedSamples[c] = append(lr.res.UntracedSamples[c], smp)
	}
	return true
}

func (lr *loadRun) violation(msg string) {
	lr.mu.Lock()
	lr.res.Violations = append(lr.res.Violations, msg)
	lr.mu.Unlock()
}

func (lr *loadRun) next(run func(due, started time.Time)) {
	lr.sched.Push(time.Now(), run)
}

func (lr *loadRun) createAudience(s *session, due time.Time) {
	ok := lr.do(s, "create_audience", due, func(ctx context.Context) error {
		resp, err := lr.client.CreateAudience(ctx, "perfbench", s.hashes)
		if err == nil {
			if resp.MatchedSize <= 0 || resp.MatchedSize > len(s.hashes) {
				lr.violation(fmt.Sprintf("audience matched %d of %d uploaded hashes", resp.MatchedSize, len(s.hashes)))
			}
			s.audienceID = resp.ID
		}
		return err
	})
	if ok {
		lr.next(func(due, _ time.Time) { lr.createCampaign(s, due) })
	}
}

func (lr *loadRun) createCampaign(s *session, due time.Time) {
	ok := lr.do(s, "create_campaign", due, func(ctx context.Context) error {
		resp, err := lr.client.CreateCampaign(ctx, marketing.CreateCampaignRequest{
			Name: "perfbench", Objective: "TRAFFIC", SpecialAdCategory: "NONE", AccountAge: 2019,
		})
		if err == nil {
			s.campaignID = resp.ID
		}
		return err
	})
	if ok {
		lr.next(func(due, _ time.Time) { lr.createAd(s, due) })
	}
}

func (lr *loadRun) createAd(s *session, due time.Time) {
	i := len(s.adIDs)
	ok := lr.do(s, "create_ad", due, func(ctx context.Context) error {
		resp, err := lr.client.CreateAd(ctx, marketing.CreateAdRequest{
			CampaignID:       s.campaignID,
			Creative:         s.creative[i],
			Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{s.audienceID}},
			DailyBudgetCents: adBudgetCents,
		})
		if err == nil {
			if resp.Status != "ACTIVE" {
				lr.violation(fmt.Sprintf("ad %s created with status %s", resp.ID, resp.Status))
			}
			s.adIDs = append(s.adIDs, resp.ID)
		}
		return err
	})
	switch {
	case !ok:
	case len(s.adIDs) < adsPerSession:
		lr.next(func(due, _ time.Time) { lr.createAd(s, due) })
	default:
		lr.next(func(due, _ time.Time) { lr.deliver(s, due) })
	}
}

func (lr *loadRun) deliver(s *session, due time.Time) {
	ok := lr.do(s, "deliver", due, func(ctx context.Context) error {
		return lr.client.Deliver(ctx, s.adIDs, s.seed)
	})
	if !ok {
		return
	}
	now := time.Now()
	remaining := pollRounds * len(s.adIDs)
	var mu sync.Mutex
	for p := 0; p < pollRounds; p++ {
		at := now.Add(time.Duration(p) * pollGap)
		for _, id := range s.adIDs {
			id := id
			lr.sched.Push(at, func(due, _ time.Time) {
				lr.insights(s, id, due)
				mu.Lock()
				remaining--
				if remaining == 0 {
					s.doneAt = time.Now()
					lr.adsDone(s)
				}
				mu.Unlock()
			})
		}
	}
}

func (lr *loadRun) adsDone(s *session) {
	if !s.measured {
		return
	}
	lr.mu.Lock()
	lr.res.AdsDone += len(s.adIDs)
	lr.mu.Unlock()
}

func (lr *loadRun) insights(s *session, adID string, due time.Time) {
	lr.do(s, "insights", due, func(ctx context.Context) error {
		resp, err := lr.client.Insights(ctx, adID)
		if err != nil {
			return err
		}
		if msg := checkInsights(resp, adBudgetCents, lr.privacy); msg != "" {
			lr.violation(msg)
		}
		if resp.Privacy != nil && s.measured {
			lr.mu.Lock()
			lr.res.Privatized++
			lr.res.SuppressedCell += resp.Privacy.SuppressedCells
			lr.mu.Unlock()
		}
		return nil
	})
}

// checkInsights checks one insights response against the delivery
// invariants: reach never exceeds impressions and spend never exceeds the
// ad's budget. Under DP noise the released totals may each move by up to
// the mechanism's bound, so reach is allowed that much slack per total.
func checkInsights(resp *marketing.InsightsResponse, budgetCents int, priv privacy.Config) string {
	slack := 0
	if resp.Privacy != nil && priv.Level == privacy.LevelKAnonDP {
		slack = 2 * privacy.NoiseBound(priv.Epsilon)
	}
	if resp.Reach > resp.Impressions+slack {
		return fmt.Sprintf("ad %s: reach %d exceeds impressions %d", resp.AdID, resp.Reach, resp.Impressions)
	}
	if resp.SpendCents > float64(budgetCents) {
		return fmt.Sprintf("ad %s: spend %.2f¢ exceeds budget %d¢", resp.AdID, resp.SpendCents, budgetCents)
	}
	if resp.Impressions < 0 || resp.Reach < 0 || resp.SpendCents < 0 {
		return fmt.Sprintf("ad %s: negative delivery figures", resp.AdID)
	}
	return ""
}

// apiServer is an http.Server on a loopback port.
type apiServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func serveHTTP(h http.Handler) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &apiServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *apiServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newAPIClient builds an advertiser client on at most conns connections,
// with retries and the circuit breaker off so that every failed request
// surfaces as a failed op. With a nil tr the client talks to the
// *http.Transport directly: net/http gives a transport it does not know an
// extra timer goroutine per request, so the untraced open-loop runs, which
// time requests themselves, do without the wrapper.
func newAPIClient(url string, conns int, tr *ClientTransport) (*marketing.Client, *http.Transport, error) {
	c, err := marketing.NewClient(url)
	if err != nil {
		return nil, nil, err
	}
	c.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 1})
	c.SetBreakerPolicy(marketing.BreakerPolicy{Threshold: -1})
	base := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	if tr == nil {
		c.SetTransport(base)
		return c, base, nil
	}
	tr.Base = base
	c.SetTransport(tr)
	return c, base, nil
}
