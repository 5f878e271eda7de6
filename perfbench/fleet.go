package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// fleetShards is the number of shard backends behind the router.
const fleetShards = 2

// fleetRate is the fleet workload's advertiser arrival rate, low because
// every delivery day is a coordinated session of begin, 48 ticks and finish
// RPCs on each shard, serialized at the coordinator.
const fleetRate = 12

// fleetStack is a coordinator.Router in front of in-process shard backends
// that serve from memory with privacy off, as adrouter fronts adplatform
// processes.
type fleetStack struct {
	world     *World
	shardRegs []*obs.Registry
	shards    []*apiServer
	router    *apiServer
}

func buildFleet(o Options, tracer *Tracer) (*fleetStack, SetupTimes, error) {
	start := time.Now()
	w, err := buildWorld(serveWorld)
	if err != nil {
		return nil, SetupTimes{}, err
	}
	s := &fleetStack{world: w}
	var urls []string
	var platformNew time.Duration
	for i := 0; i < fleetShards; i++ {
		plat, newDur, err := w.newPlatform()
		if err != nil {
			return s, SetupTimes{}, err
		}
		platformNew += newDur
		reg := obs.NewRegistry()
		plat.SetObserver(reg, nil)
		srv, err := marketing.NewServer(plat, marketing.WithRegistry(reg))
		if err != nil {
			return s, SetupTimes{}, err
		}
		hs, err := serveHTTP(wrapServer(tracer, "shard", srv.Handler()))
		if err != nil {
			return s, SetupTimes{}, err
		}
		s.shardRegs = append(s.shardRegs, reg)
		s.shards = append(s.shards, hs)
		urls = append(urls, hs.url)
	}
	cfg := coordinator.Config{Backends: urls}
	if tracer != nil {
		cfg.Transport = coordTransport{base: http.DefaultTransport, t: tracer}
	}
	reg := obs.NewRegistry()
	coord, err := coordinator.New(cfg, reg)
	if err != nil {
		return s, SetupTimes{}, err
	}
	router, err := coordinator.NewRouter(coord, reg)
	if err != nil {
		return s, SetupTimes{}, err
	}
	if s.router, err = serveHTTP(wrapServer(tracer, "coordinator", router.Handler())); err != nil {
		return s, SetupTimes{}, err
	}
	return s, w.setupTimes(start, platformNew), nil
}

func (s *fleetStack) close() error {
	var err error
	if s.router != nil {
		err = s.router.close()
	}
	for _, sh := range s.shards {
		if cerr := sh.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func runFleet(o Options) (*Report, error) {
	var tracer *Tracer
	if o.Trace {
		tracer = newTracer()
	}
	var stack *fleetStack
	setups, err := repeatSetup(func() (func() error, SetupTimes, error) {
		s, st, err := buildFleet(o, tracer)
		if err != nil {
			if s != nil {
				_ = s.close()
			}
			return nil, st, err
		}
		stack = s
		return s.close, st, nil
	})
	if err != nil {
		return nil, err
	}
	defer stack.close()

	shape := LoadShape{Rate: fleetRate, Window: o.Window}
	var tr *ClientTransport
	if tracer != nil {
		tr = &ClientTransport{Tracer: tracer}
	}
	client, base, err := newAPIClient(stack.router.url, loadConns, tr)
	if err != nil {
		return nil, err
	}
	defer base.CloseIdleConnections()
	if err := checkFleetProbe(stack, client, o.Seed); err != nil {
		return nil, err
	}

	sessions, err := makeSessions(stack.world, shape, o.Seed)
	if err != nil {
		return nil, err
	}
	var before RegistryMark
	var rt runtimeMark
	res := runLoad(context.Background(), client, sessions, tracer, privacy.Config{}, func() {
		before, rt = markRegistry(stack.shardRegs...), markRuntime()
	})
	gc := rt.since()
	after := markRegistry(stack.shardRegs...)

	rep := newLoadReport(o, setups, shape, res, gc)
	rep.Extra["shards"] = fleetShards
	if tracer != nil {
		spans := tracer.Spans()
		layers := rep.Layers
		addSpanLayers(layers, spans, "coordinator")
		addDayLayers(layers, after.minus(before), fleetShards, 0)
		addCoordinatorLayers(layers, spans)
		rep.SelfTimes = selfTimes(spans)
	}
	return rep, nil
}

// addCoordinatorLayers decomposes coordinated delivery: the shard RPCs by
// kind, how many a day takes, the shard's own tick time, the hop around it,
// and the skew between the shards of one tick barrier.
func addCoordinatorLayers(layers map[string]float64, spans []Span) {
	days := float64(len(spansNamed(spans, "coordinator.deliver")))
	writes := 0
	for _, op := range []string{"create_audience", "create_campaign", "create_ad"} {
		writes += len(spansNamed(spans, "coordinator."+op))
	}
	for _, kind := range []string{"begin", "tick", "finish", "crud", "read"} {
		rpcs := spansNamed(spans, "coordinator.rpc."+kind)
		layers["coordinator.rpc."+kind+"_ms"] = meanMs(rpcs)
		switch {
		case kind == "crud" && writes > 0:
			layers["coordinator.rpc.crud_per_write"] = float64(len(rpcs)) / float64(writes)
		case kind != "crud" && kind != "read" && days > 0:
			layers["coordinator.rpc."+kind+"_per_day"] = float64(len(rpcs)) / days
		}
	}

	ticks := spansNamed(spans, "coordinator.rpc.tick")
	byID := map[uint64]Span{}
	for _, s := range ticks {
		byID[s.ID] = s
	}
	var hop time.Duration
	n := 0
	for _, s := range spansNamed(spans, "shard.tick") {
		if rpc, ok := byID[s.Parent]; ok {
			hop += (rpc.End - rpc.Start) - (s.End - s.Start)
			n++
		}
	}
	layers["shard.tick.server_ms"] = meanMs(spansNamed(spans, "shard.tick"))
	if n > 0 {
		layers["coordinator.tick_hop_ms"] = ms(hop) / float64(n)
	}
	layers["coordinator.tick_skew_ms"] = meanTickSkew(ticks, fleetShards)
}

// meanTickSkew groups one day's tick RPCs into barriers — the shards of a
// tick run in parallel and the next tick starts only when all returned, so
// in start order each run of `shards` spans is one tick — and averages the
// slowest-minus-fastest duration per barrier.
func meanTickSkew(ticks []Span, shards int) float64 {
	byDay := map[uint64][]Span{}
	for _, s := range ticks {
		byDay[s.Parent] = append(byDay[s.Parent], s)
	}
	var total time.Duration
	n := 0
	for _, day := range byDay {
		sort.Slice(day, func(i, j int) bool { return day[i].Start < day[j].Start })
		for i := 0; i+shards <= len(day); i += shards {
			lo, hi := day[i].End-day[i].Start, day[i].End-day[i].Start
			for _, s := range day[i+1 : i+shards] {
				d := s.End - s.Start
				lo, hi = min(lo, d), max(hi, d)
			}
			total += hi - lo
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// checkFleetProbe runs a fixed scenario — one audience, one campaign, two
// ads, one delivery day — through the router and through a single-process
// server over an identical platform delivering with as many workers as the
// fleet has shards, and requires byte-equal insights.
func checkFleetProbe(stack *fleetStack, client *marketing.Client, seed int64) error {
	plat, _, err := stack.world.newPlatform()
	if err != nil {
		return err
	}
	srv, err := marketing.NewServer(plat)
	if err != nil {
		return err
	}
	ref, err := marketing.NewClient("http://reference.invalid")
	if err != nil {
		return err
	}
	ref.SetRetryPolicy(marketing.RetryPolicy{MaxAttempts: 1})
	refHandler := srv.Handler()
	ref.SetTransport(handlerTransport{refHandler})

	hashes := stack.world.piiHashes(0, 0, audienceLen)
	ads := make([][]string, 2)
	for i, c := range []*marketing.Client{client, ref} {
		ctx := context.Background()
		aud, err := c.CreateAudience(ctx, "probe", hashes)
		if err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
		cmp, err := c.CreateCampaign(ctx, marketing.CreateCampaignRequest{Name: "probe", Objective: "TRAFFIC", SpecialAdCategory: "NONE", AccountAge: 2019})
		if err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
		for a := 0; a < 2; a++ {
			ad, err := c.CreateAd(ctx, marketing.CreateAdRequest{
				CampaignID:       cmp.ID,
				Creative:         marketing.WireCreative{Headline: fmt.Sprintf("probe %d", a), LinkURL: "https://example.edu/"},
				Targeting:        marketing.WireTargeting{CustomAudienceIDs: []string{aud.ID}},
				DailyBudgetCents: adBudgetCents,
			})
			if err != nil {
				return fmt.Errorf("fleet probe: %w", err)
			}
			ads[i] = append(ads[i], ad.ID)
		}
		if err := c.DeliverWorkers(ctx, ads[i], seed, fleetShards); err != nil {
			return fmt.Errorf("fleet probe: %w", err)
		}
	}
	for k, id := range ads[0] {
		if ads[1][k] != id {
			return fmt.Errorf("fleet probe: router allocated ad %s, single process %s", id, ads[1][k])
		}
		got, err := rawInsights(http.DefaultClient, stack.router.url, id)
		if err != nil {
			return err
		}
		want, err := rawInsights(&http.Client{Transport: handlerTransport{refHandler}}, "http://reference.invalid", id)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("fleet probe: ad %s insights differ between the %d-shard router and the single-process engine:\nrouter: %s\nsingle: %s",
				id, fleetShards, got, want)
		}
	}
	return nil
}

func rawInsights(c *http.Client, base, adID string) ([]byte, error) {
	resp, err := c.Get(base + "/v1/insights?ad_id=" + url.QueryEscape(adID))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("insights for %s: %s: %s", adID, resp.Status, body)
	}
	return body, nil
}

// handlerTransport serves requests from an in-process handler, without a
// network hop.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
