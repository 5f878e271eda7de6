package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/adaudit/impliedidentity/internal/core"
	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/privacy"
)

// The audit probe is a fixed Campaign 1 on a small lab, run before every
// audit workload. Its insights and Table 3 must hash to auditProbeDigest:
// a change that moves delivery output moves this digest, and has to say so.
const (
	auditProbeSeed   = 20221025
	auditProbeDigest = "da6cd3982163e9e22eb4e67b40c67553cb25f635bc84ca8c71df80daf57cc067"
)

// auditBudgetCents is Campaign 1's per-ad daily budget.
const auditBudgetCents = 200

// auditCampaignTime is the nominal time of one campaign, about what one
// takes on a 2-vCPU virtual machine. The audit measures a
// fixed number of campaigns sized from it to fill the window, so that every
// run does the same work whatever the program's speed: a faster program
// finishes early instead of accumulating more state (and memory).
const auditCampaignTime = 3 * time.Second

// auditCampaigns is how many campaigns fill a window.
func auditCampaigns(window time.Duration) int {
	return max(int(window/auditCampaignTime), 2)
}

// auditWorld is the world a core.ScaleFull lab with seed 1 builds: 120,000
// voters in each of FL and NC and a 60,000-row engagement log. Like the
// serving workloads, the audit keeps one world and draws its campaigns from
// the seed.
var auditWorld = WorldSpec{Seed: 1, States: []demo.State{demo.StateFL, demo.StateNC}, VotersPerState: 120000, TrainingLogRows: 60000}

// auditStack is a ScaleFull lab whose marketing server the benchmark serves
// itself, so that its handler can be wrapped.
type auditStack struct {
	world  *World
	plat   *platform.Platform
	reg    *obs.Registry
	server *apiServer
}

func buildAudit(o Options, tracer *Tracer) (*auditStack, SetupTimes, error) {
	start := time.Now()
	w, err := buildWorld(auditWorld)
	if err != nil {
		return nil, SetupTimes{}, err
	}
	plat, newDur, err := w.newPlatform()
	if err != nil {
		return nil, SetupTimes{}, err
	}
	s := &auditStack{world: w, plat: plat}
	if tracer != nil {
		s.reg = obs.NewRegistry()
		plat.SetObserver(s.reg, nil)
	}
	srv, err := marketing.NewServer(plat)
	if err != nil {
		return nil, SetupTimes{}, err
	}
	if s.server, err = serveHTTP(wrapServer(tracer, "marketing", srv.Handler())); err != nil {
		return nil, SetupTimes{}, err
	}
	return s, w.setupTimes(start, newDur), nil
}

func (s *auditStack) close() error { return s.server.close() }

// campaignInput is one Campaign-1-shaped campaign's generated input.
type campaignInput struct {
	name  string
	specs []core.AdSpec
	seed  int64
}

func campaignInputs(seed int64, i int) (campaignInput, error) {
	cseed := seed + 1000*int64(i+1)
	specs, err := core.StockSpecs(5, cseed+10)
	if err != nil {
		return campaignInput{}, err
	}
	return campaignInput{name: fmt.Sprintf("Campaign 1 #%d", i), specs: specs, seed: cseed}, nil
}

// auditRun is the state of the audit loop shared with the client transport.
type auditRun struct {
	tracer *Tracer
	traced bool
	phase  *OpenSpan // the core call in progress, parent of its API calls
}

// span opens a root span for a core call when the campaign is traced.
func (a *auditRun) span(name string) *OpenSpan {
	if !a.traced {
		return nil
	}
	a.phase = a.tracer.begin(name, SpanRef{})
	return a.phase
}

// campaign runs one Campaign 1: DefaultSplitAudiences → RunPairedCampaign →
// MeasureCampaign → RegressTable4 and Table 3, checking every insights
// response on the way.
func (a *auditRun) campaign(lab *core.Lab, in campaignInput) (ads int, violations []string, err error) {
	sp := a.span("core.audiences")
	auds, err := lab.DefaultSplitAudiences(in.name, in.seed+11)
	sp.end()
	if err != nil {
		return 0, nil, err
	}
	sp = a.span("core.run_campaign")
	run, err := lab.RunPairedCampaign(core.CampaignConfig{Name: in.name, BudgetCents: auditBudgetCents, Seed: in.seed + 12}, in.specs, auds)
	sp.end()
	if err != nil {
		return 0, nil, err
	}
	sp = a.span("core.measure")
	ds, err := core.MeasureCampaign(run)
	sp.end()
	if err != nil {
		return 0, nil, err
	}
	sp = a.span("core.regress")
	t4, err := core.RegressTable4(ds, core.AgeTarget65Plus)
	t3 := core.Table3(ds)
	sp.end()
	a.phase = nil
	if err != nil {
		return 0, nil, err
	}
	for _, ar := range run.Ads {
		for _, ins := range []*marketing.InsightsResponse{ar.Primary, ar.Reversed} {
			if ins == nil {
				violations = append(violations, fmt.Sprintf("%s: ad %s was not delivered", in.name, ar.Spec.Key))
				continue
			}
			if msg := checkInsights(ins, auditBudgetCents, privacy.Config{}); msg != "" {
				violations = append(violations, in.name+": "+msg)
			}
		}
	}
	if len(ds) != len(in.specs) || len(t3) == 0 || math.IsNaN(t4.Black.R2) {
		violations = append(violations, fmt.Sprintf("%s: measured %d of %d ads", in.name, len(ds), len(in.specs)))
	}
	return run.AdCount(), violations, nil
}

func runAudit(o Options) (*Report, error) {
	rep := newReport()
	if err := checkAuditProbe(); err != nil {
		return nil, err
	}
	var tracer *Tracer
	if o.Trace {
		tracer = newTracer()
	}
	var stack *auditStack
	setups, err := repeatSetup(func() (func() error, SetupTimes, error) {
		s, st, err := buildAudit(o, tracer)
		if err != nil {
			return nil, st, err
		}
		stack = s
		return s.close, st, nil
	})
	if err != nil {
		return nil, err
	}
	defer stack.close()
	addSetupLayers(rep, setups)

	a := &auditRun{tracer: tracer}
	tr := &ClientTransport{Tracer: tracer, Traced: func() bool { return a.traced }, Parent: func() SpanRef { return a.phase.Ref() }}
	client, base, err := newAPIClient(stack.server.url, 1, tr)
	if err != nil {
		return nil, err
	}
	defer base.CloseIdleConnections()
	w := stack.world
	lab := &core.Lab{
		Config:   core.LabConfig{Seed: auditWorld.Seed, Scale: core.ScaleFull},
		FL:       w.Registries[0],
		NC:       w.Registries[1],
		Pop:      w.Pop,
		Client:   client,
		Platform: stack.plat,
	}

	// Warm-up: one campaign, untimed.
	in, err := campaignInputs(o.Seed, 0)
	if err != nil {
		return nil, err
	}
	if _, v, err := a.campaign(lab, in); err != nil {
		return nil, err
	} else {
		rep.Violations = append(rep.Violations, v...)
	}

	var before RegistryMark
	if stack.reg != nil {
		before = markRegistry(stack.reg)
	}
	rt := markRuntime()
	tr.StartRecording()
	var ads int
	var busy time.Duration
	var tracedDur, untracedDur []float64 // seconds per ad, for the tracing overhead
	winStart := time.Now()
	for i := 1; i <= auditCampaigns(o.Window); i++ {
		in, err := campaignInputs(o.Seed, i)
		if err != nil {
			return nil, err
		}
		a.traced = tracer != nil && i%2 == 0
		start := time.Now()
		n, v, err := a.campaign(lab, in)
		took := time.Since(start)
		if err != nil {
			return nil, err
		}
		rep.Violations = append(rep.Violations, v...)
		ads += n
		busy += took
		if a.traced {
			tracedDur = append(tracedDur, took.Seconds()/float64(n))
		} else {
			untracedDur = append(untracedDur, took.Seconds()/float64(n))
		}
	}
	samples, attempted, failed, serverErr := tr.StopRecording()
	gc := rt.since()

	rep.Attempted, rep.Failed = attempted, failed
	if serverErr > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d responses were 5xx", serverErr))
	}
	rep.E2E["audit_ads_per_s"] = float64(ads) / busy.Seconds()
	addClassMetrics(rep, samples, time.Since(winStart))
	gc.addTo(rep)
	rep.Extra["loop"] = "closed"
	rep.Extra["connections"] = 1
	rep.Extra["campaigns"] = len(tracedDur) + len(untracedDur)
	rep.Extra["ads_per_campaign"] = 2 * len(in.specs)
	rep.Extra["probe_digest"] = auditProbeDigest

	if tracer != nil {
		spans := tracer.Spans()
		layers := rep.Layers
		addSpanLayers(layers, spans, "marketing")
		addDayLayers(layers, markRegistry(stack.reg).minus(before), 1, layers["marketing.deliver.server_ms"])
		layers["core.audiences_s"] = meanMs(spansNamed(spans, "core.audiences")) / 1000
		layers["core.measure_ms"] = meanMs(spansNamed(spans, "core.measure"))
		layers["core.regress_ms"] = meanMs(spansNamed(spans, "core.regress"))
		if len(tracedDur) > 0 && len(untracedDur) > 0 {
			layers["bench.trace_overhead_pct"] = 100 * (median(tracedDur)/median(untracedDur) - 1)
		}
		rep.SelfTimes = selfTimes(spans)
	}
	return rep, nil
}

// checkAuditProbe runs the fixed probe campaign and compares its digest.
func checkAuditProbe() error {
	lab, err := core.NewLab(core.LabConfig{Seed: auditProbeSeed, Scale: core.ScaleTest})
	if err != nil {
		return err
	}
	defer lab.Close()
	res, err := lab.RunStockExperiment(core.StockExperimentOptions{Seed: auditProbeSeed})
	if err != nil {
		return fmt.Errorf("audit probe: %w", err)
	}
	got, err := auditDigest(res)
	if err != nil {
		return err
	}
	if got != auditProbeDigest {
		return fmt.Errorf("audit probe: insights+Table 3 digest %s, recorded %s", got, auditProbeDigest)
	}
	return nil
}

// auditDigest hashes every delivered copy's insights and the Table 3 rows.
func auditDigest(res *core.StockResult) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, ar := range res.Run.Ads {
		if err := enc.Encode([]*marketing.InsightsResponse{ar.Primary, ar.Reversed}); err != nil {
			return "", err
		}
	}
	if err := enc.Encode(res.Table3); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
