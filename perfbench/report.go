package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/store"
)

// Options are one invocation's settings.
type Options struct {
	Workload   string
	Seed       int64
	Window     time.Duration
	Trace      bool
	ScratchDir string // inside the checkout; removed when the run ends
}

// setupRepeats is how many times each run builds its system; setup_s is the
// median, and the last build serves the run.
const setupRepeats = 3

// SetupTimes is one build of a workload's system.
type SetupTimes struct {
	Total           time.Duration
	VoterGenerate   time.Duration
	PopulationBuild time.Duration
	PlatformNew     time.Duration // summed over every platform the system trains
	BytesPerUser    float64
}

// repeatSetup builds the system setupRepeats times, closing every build but
// the last, and returns the timings of all of them. Memory freed by a closed
// build is returned to the OS before the next, so that the peak resident
// set does not depend on when the runtime would have got round to it.
func repeatSetup(build func() (closeFn func() error, st SetupTimes, err error)) ([]SetupTimes, error) {
	var out []SetupTimes
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		closeFn, st, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if i < setupRepeats-1 {
			if err := closeFn(); err != nil {
				return nil, err
			}
		}
	}
	debug.FreeOSMemory()
	return out, nil
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is everything one run measured.
type Report struct {
	Attempted  int
	Failed     int
	Violations []string
	// E2E holds the end-to-end metrics, Layers the per-layer ones (traced
	// runs), both by name; units come from the metric tables below.
	E2E       map[string]float64
	Layers    map[string]float64
	Classes   map[Class]ClassStats
	SelfTimes map[string]*SpanStats
	Extra     map[string]any // workload facts for the envelope
}

func newReport() *Report {
	return &Report{E2E: map[string]float64{}, Layers: map[string]float64{}, Classes: map[Class]ClassStats{}, Extra: map[string]any{}}
}

// e2eUnits lists the end-to-end metrics every run reports, with units.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"audit_ads_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"deliver_p50_ms", "ms"},
}

// layerUnits lists the per-layer metrics every traced run reports, with
// units. A layer a workload does not exercise reports 0.
var layerUnits = []struct{ name, unit string }{
	{"write_p95_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"deliver_p95_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"voter.generate_s", "s"},
	{"population.build_s", "s"},
	{"population.bytes_per_user", "B"},
	{"platform.new_s", "s"},
	{"core.audiences_s", "s"},
	{"core.measure_ms", "ms"},
	{"core.regress_ms", "ms"},
	{"platform.day_ms", "ms"},
	{"platform.prepare_ms", "ms"},
	{"platform.auctions", "count"},
	{"platform.impressions", "count"},
	{"platform.impressions_per_auction", "ratio"},
	{"marketing.create_audience.server_ms", "ms"},
	{"marketing.create_campaign.server_ms", "ms"},
	{"marketing.create_ad.server_ms", "ms"},
	{"marketing.deliver.server_ms", "ms"},
	{"marketing.insights.server_ms", "ms"},
	{"marketing.create_audience.hop_ms", "ms"},
	{"marketing.create_campaign.hop_ms", "ms"},
	{"marketing.create_ad.hop_ms", "ms"},
	{"marketing.deliver.hop_ms", "ms"},
	{"marketing.insights.hop_ms", "ms"},
	{"marketing.deliver.self_ms", "ms"},
	{"store.barrier_p50_ms", "ms"},
	{"store.barrier_p99_ms", "ms"},
	{"store.group_commits", "count"},
	{"store.records_per_commit", "ratio"},
	{"store.fsyncs", "count"},
	{"privacy.privatized_responses", "count"},
	{"privacy.suppressed_cells", "count"},
	{"coordinator.create_ad.server_ms", "ms"},
	{"coordinator.deliver.server_ms", "ms"},
	{"coordinator.insights.server_ms", "ms"},
	{"coordinator.deliver.self_ms", "ms"},
	{"coordinator.rpc.begin_ms", "ms"},
	{"coordinator.rpc.tick_ms", "ms"},
	{"coordinator.rpc.finish_ms", "ms"},
	{"coordinator.rpc.crud_ms", "ms"},
	{"coordinator.rpc.read_ms", "ms"},
	{"coordinator.rpc.begin_per_day", "count"},
	{"coordinator.rpc.tick_per_day", "count"},
	{"coordinator.rpc.finish_per_day", "count"},
	{"coordinator.rpc.crud_per_write", "count"},
	{"shard.tick.server_ms", "ms"},
	{"coordinator.tick_hop_ms", "ms"},
	{"coordinator.tick_skew_ms", "ms"},
	{"drift.write_ratio", "ratio"},
	{"drift.read_ratio", "ratio"},
	{"drift.deliver_ratio", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.conn_wait_p50_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
}

// addSetupLayers reports the median of each setup layer over the builds.
func addSetupLayers(rep *Report, setups []SetupTimes) {
	pick := func(f func(SetupTimes) float64) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s)
		}
		return median(xs)
	}
	rep.E2E["setup_s"] = pick(func(s SetupTimes) float64 { return s.Total.Seconds() })
	rep.Layers["voter.generate_s"] = pick(func(s SetupTimes) float64 { return s.VoterGenerate.Seconds() })
	rep.Layers["population.build_s"] = pick(func(s SetupTimes) float64 { return s.PopulationBuild.Seconds() })
	rep.Layers["platform.new_s"] = pick(func(s SetupTimes) float64 { return s.PlatformNew.Seconds() })
	rep.Layers["population.bytes_per_user"] = pick(func(s SetupTimes) float64 { return s.BytesPerUser })
}

// addClassMetrics reports the latency classes: the p50 as an end-to-end
// metric, the two tails (see summarize) and the drift between the window's
// halves as per-layer ones. The tails are not end-to-end metrics: on a
// small shared host their run-to-run spread is wider than any bound a
// regression gate could use.
func addClassMetrics(rep *Report, samples map[Class][]Sample, window time.Duration) {
	for _, c := range classes {
		cs := summarize(samples[c], window)
		rep.Classes[c] = cs
		rep.E2E[string(c)+"_p50_ms"] = cs.P50.Value
		rep.Layers[string(c)+"_p95_ms"] = cs.P95.Value
		rep.Layers[string(c)+"_p99_ms"] = cs.P99.Value
		if cs.FirstHalfP50 > 0 {
			rep.Layers["drift."+string(c)+"_ratio"] = cs.SecondHalfP50 / cs.FirstHalfP50
		}
	}
}

// newLoadReport turns an open-loop run into a report.
func newLoadReport(o Options, setups []SetupTimes, shape LoadShape, res LoadResult, gc runtimeDelta) *Report {
	rep := newReport()
	rep.Attempted, rep.Failed = res.Attempted, res.Failed
	rep.Violations = res.Violations
	if res.ServerErrors > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d responses were 5xx", res.ServerErrors))
	}
	addSetupLayers(rep, setups)
	addClassMetrics(rep, res.Samples, shape.Window)
	if res.AdsSpan > 0 {
		rep.E2E["audit_ads_per_s"] = float64(res.AdsDone) / res.AdsSpan.Seconds()
	}
	lag := durationsMs(res.GenLag)
	wait := durationsMs(res.ConnWait)
	rep.Layers["bench.gen_lag_p99_ms"] = tailOf(lag, 99).Value
	rep.Layers["bench.conn_wait_p50_ms"] = percentile(wait, 50).Value
	gc.addTo(rep)
	if o.Trace {
		rep.Layers["bench.trace_overhead_pct"] = traceOverheadPct(res.TracedSamples, res.UntracedSamples)
	}
	rep.Extra["offered_advertisers_per_s"] = shape.Rate
	rep.Extra["connections"] = loadConns
	rep.Extra["warmup_s"] = loadWarmup.Seconds()
	rep.Extra["loop"] = "open"
	return rep
}

// traceOverheadPct compares the median latency of ops in traced slices with
// that of ops in untraced slices of the same run.
func traceOverheadPct(traced, untraced map[Class][]Sample) float64 {
	var on, off []float64
	for _, c := range classes {
		for _, s := range traced[c] {
			on = append(on, ms(s.Latency))
		}
		for _, s := range untraced[c] {
			off = append(off, ms(s.Latency))
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(on)/median(off) - 1)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func meanMs(spans []Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range spans {
		total += s.End - s.Start
	}
	return ms(total) / float64(len(spans))
}

// apiOps are the five advertiser API calls the workloads make.
var apiOps = []string{"create_audience", "create_campaign", "create_ad", "deliver", "insights"}

// addSpanLayers reports, per API op, the serving layer's time per request
// and the HTTP hop: the client's round trip minus the server span inside it.
func addSpanLayers(layers map[string]float64, spans []Span, serverLayer string) {
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, op := range apiOps {
		server := spansNamed(spans, serverLayer+"."+op)
		layers[serverLayer+"."+op+".server_ms"] = meanMs(server)
		var hop time.Duration
		n := 0
		for _, s := range server {
			if c, ok := byID[s.Parent]; ok && strings.HasPrefix(c.Name, "client.") {
				hop += (c.End - c.Start) - (s.End - s.Start)
				n++
			}
		}
		if n > 0 {
			layers["marketing."+op+".hop_ms"] = ms(hop) / float64(n)
		}
	}
}

// RegistryMark is a reading of a registry's counters and delivery-day
// histogram, for deltas over the measured window.
type RegistryMark struct {
	Counters map[string]int64
	Days     int64
	DayTotal time.Duration
}

func markRegistry(regs ...*obs.Registry) RegistryMark {
	m := RegistryMark{Counters: map[string]int64{}}
	for _, reg := range regs {
		for k, v := range reg.Snapshot().Counters {
			m.Counters[k] += v
		}
		h := reg.Histogram(platform.MetricDeliveryDayLatency)
		m.Days += h.Count()
		m.DayTotal += h.Mean() * time.Duration(h.Count())
	}
	return m
}

func (m RegistryMark) minus(base RegistryMark) RegistryMark {
	d := RegistryMark{Counters: map[string]int64{}, Days: m.Days - base.Days, DayTotal: m.DayTotal - base.DayTotal}
	for k, v := range m.Counters {
		d.Counters[k] = v - base.Counters[k]
	}
	return d
}

// addDayLayers reports the delivery engine's per-day figures from the
// registries behind platform.SetObserver; each delivery is observed once
// per platform that ran a share of it. The observer times the tick loop
// only, so the rest of the server's deliver time is day preparation
// (resolving the ads and building the eligibility index).
func addDayLayers(layers map[string]float64, d RegistryMark, platformsPerDay int, deliverServerMs float64) {
	if d.Days <= 0 {
		return
	}
	day := ms(d.DayTotal) / float64(d.Days)
	layers["platform.day_ms"] = day
	if deliverServerMs > day {
		layers["platform.prepare_ms"] = deliverServerMs - day
	}
	days := float64(d.Days) / float64(platformsPerDay)
	auctions := float64(d.Counters[platform.MetricDeliveryAuctions])
	imps := float64(d.Counters[platform.MetricDeliveryImpressions])
	layers["platform.auctions"] = auctions / days
	layers["platform.impressions"] = imps / days
	if auctions > 0 {
		layers["platform.impressions_per_auction"] = imps / auctions
	}
}

// addStoreLayers reports the WAL store: the barrier as the server waits on
// it, and the group-commit counters from the registry in store.Options.
func addStoreLayers(layers map[string]float64, spans []Span, d RegistryMark) {
	var barrier []float64
	for _, s := range spansNamed(spans, "store.barrier") {
		barrier = append(barrier, ms(s.End-s.Start))
	}
	sort.Float64s(barrier)
	layers["store.barrier_p50_ms"] = percentile(barrier, 50).Value
	layers["store.barrier_p99_ms"] = tailOf(barrier, 99).Value
	commits := d.Counters[store.MetricGroupCommits]
	layers["store.group_commits"] = float64(commits)
	layers["store.fsyncs"] = float64(d.Counters[store.MetricFsyncs])
	if commits > 0 {
		layers["store.records_per_commit"] = float64(d.Counters[store.MetricRecordsAppended]) / float64(commits)
	}
}

// runtimeMark is a reading of the Go runtime's GC counters.
type runtimeMark struct {
	pauseNs uint64
	numGC   uint32
}

type runtimeDelta struct {
	pause  time.Duration
	cycles uint32
}

func markRuntime() runtimeMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeMark{pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

func (r runtimeMark) since() runtimeDelta {
	now := markRuntime()
	return runtimeDelta{pause: time.Duration(now.pauseNs - r.pauseNs), cycles: now.numGC - r.numGC}
}

func (d runtimeDelta) addTo(rep *Report) {
	rep.Layers["runtime.gc_pause_ms"] = ms(d.pause)
	rep.Layers["runtime.gc_cycles"] = float64(d.cycles)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
