// Command adload generates concurrent advertiser traffic against the
// marketing API and reports serving latency and throughput. It either
// targets a running adplatform server over TCP or self-hosts an in-process
// one, runs virtual-advertiser scenarios (upload audience → create campaign
// → create ads → deliver → poll insights) in closed-loop or open-loop mode,
// prints a human summary table, and optionally writes the machine-readable
// JSON report future perf PRs compare against.
//
// Self-hosted smoke run (deterministic workload under a fixed seed):
//
//	adload -scenarios 6 -concurrency 3 -seed 1 -out BENCH_serving_v1.json
//
// Against a running server (hashes come from the voter extract the server
// wrote with -voterdir):
//
//	adplatform -addr 127.0.0.1:8399 -voterdir /tmp/voters &
//	adload -target http://127.0.0.1:8399 -voterfile /tmp/voters/fl_voter_extract.txt \
//	       -mode open -rps 10 -scenarios 50
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/loadgen"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/report"
	"github.com/adaudit/impliedidentity/internal/store"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("adload", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running adplatform server; empty self-hosts one in-process")
	voterFile := fs.String("voterfile", "", "FL-layout voter extract to derive audience PII hashes from (required with -target)")
	mode := fs.String("mode", "closed", "driving discipline: closed (fixed concurrency) or open (Poisson arrivals)")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	rps := fs.Float64("rps", 4, "open-loop scenario arrival rate per second")
	scenarios := fs.Int("scenarios", 8, "virtual advertisers to run")
	ads := fs.Int("ads", 2, "ads per campaign")
	audience := fs.Int("audience", 200, "PII hashes per audience upload")
	polls := fs.Int("polls", 2, "insights polls per delivered ad")
	seed := fs.Int64("seed", 1, "workload seed (and world seed when self-hosting)")
	duration := fs.Duration("duration", 0, "wall-clock cap on the run; 0 = run all scenarios")
	throttle := fs.Duration("throttle", 0, "client-side minimum interval between requests; 0 disables")
	retries := fs.Int("retries", 0, "client max attempts per API call (0 = library default)")
	out := fs.String("out", "", "path to write the JSON report (BENCH_serving schema)")
	voters := fs.Int("voters", 8000, "self-hosted world: voters in the registry")
	logRows := fs.Int("logrows", 3000, "self-hosted world: engagement-log rows for eAR training")
	faultRate := fs.Float64("fault-rate", 0, "self-hosted chaos: probability a request draws an injected fault (0 disables)")
	faultSeed := fs.Int64("fault-seed", 1, "self-hosted chaos: fault-schedule seed (same seed, same schedule)")
	faultKinds := fs.String("fault-kinds", "all", "self-hosted chaos: comma-separated fault kinds (latency,429,5xx,drop,slow) or all")
	shedCap := fs.Int("shed-cap", marketing.DefaultServerLimits().MaxInFlight, "self-hosted server: max in-flight requests before shedding with 429 (0 disables)")
	storeDir := fs.String("store-dir", "", "self-hosted server: durable state directory (empty serves from memory only)")
	fsyncMode := fs.String("fsync", "always", "self-hosted server: WAL fsync discipline (always, interval, none); requires -store-dir")
	deliveryWorkers := fs.Int("delivery-workers", 0, "delivery shard count sent with every deliver call (0 = server default, 1 = single shard)")
	privacyK := fs.Int("privacy-k", 0, "insights privacy: k-anonymity threshold on the self-hosted server (0 disables); with -target, records the remote policy in the report")
	privacyEpsilon := fs.Float64("privacy-epsilon", 0, "insights privacy: DP noise epsilon on the self-hosted server (0 disables); with -target, records the remote policy in the report")
	privacySeed := fs.Int64("privacy-seed", 1, "insights privacy: noise-stream seed for the self-hosted server")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *target != "" {
		// Faults are injected into the self-hosted server's handler chain;
		// against a remote server these flags would silently do nothing.
		// (-privacy-k/-privacy-epsilon stay legal with -target: they record
		// the remote policy in the report; the seed is server-side only.)
		for _, f := range []string{"fault-rate", "fault-seed", "fault-kinds", "shed-cap", "store-dir", "fsync", "privacy-seed"} {
			if flagWasSet(fs, f) {
				return fmt.Errorf("-%s applies to the self-hosted server and cannot be combined with -target", f)
			}
		}
	}
	kinds, err := faults.ParseKinds(*faultKinds)
	if err != nil {
		return err
	}
	fsync, err := store.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	privCfg, err := privacy.FromFlags(*privacyK, *privacyEpsilon, *privacySeed)
	if err != nil {
		return err
	}

	baseURL := *target
	var hashes []string
	if *target == "" {
		fmt.Fprintf(stdout, "self-hosting a platform (%d voters, seed %d)...\n", *voters, *seed)
		if *faultRate > 0 {
			fmt.Fprintf(stdout, "injecting faults: rate %.2f, seed %d, kinds %v\n", *faultRate, *faultSeed, kinds)
		}
		if *storeDir != "" {
			fmt.Fprintf(stdout, "durable store at %s (fsync=%s)\n", *storeDir, fsync)
		}
		if privCfg.Enabled() {
			fmt.Fprintf(stdout, "insights privacy armed: level %s, k=%d, epsilon=%v\n",
				privCfg.Level, privCfg.K, privCfg.Epsilon)
		}
		ts, pool, closeStore, err := selfHost(*seed, *voters, *logRows, *shedCap, faults.Config{
			Seed:  *faultSeed,
			Rate:  *faultRate,
			Kinds: kinds,
		}, *storeDir, fsync, privCfg)
		if err != nil {
			return err
		}
		defer closeStore()
		defer ts.Close()
		baseURL = ts.URL
		hashes = pool
	} else {
		if *voterFile == "" {
			return fmt.Errorf("targeting %s requires -voterfile to build audiences (run adplatform with -voterdir)", *target)
		}
		pool, err := hashesFromExtract(*voterFile)
		if err != nil {
			return err
		}
		hashes = pool
	}

	client, err := marketing.NewClient(baseURL)
	if err != nil {
		return err
	}
	if *throttle > 0 {
		client.SetMinInterval(*throttle)
	}
	if *retries > 0 {
		pol := marketing.DefaultRetryPolicy()
		pol.MaxAttempts = *retries
		client.SetRetryPolicy(pol)
	}
	// A router target answers GET /v1/topology; a single adplatform 404s it.
	// Recording the shard count keeps multi-process bench reports
	// distinguishable from single-process ones.
	shardCount := probeTopology(baseURL)
	if shardCount > 0 {
		fmt.Fprintf(stdout, "target is a router over %d shard(s)\n", shardCount)
	}
	runner, err := loadgen.New(loadgen.Config{
		Seed:            *seed,
		Mode:            loadgen.Mode(*mode),
		Workers:         *concurrency,
		ArrivalRPS:      *rps,
		Scenarios:       *scenarios,
		AdsPerCampaign:  *ads,
		AudienceSize:    *audience,
		InsightsPolls:   *polls,
		Hashes:          hashes,
		DeliveryWorkers: *deliveryWorkers,
		ShardCount:      shardCount,
		Privacy:         privCfg,
	}, client)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	fmt.Fprintf(stdout, "running %d scenarios (%s mode) against %s...\n", *scenarios, *mode, baseURL)
	rep, runErr := runner.Run(ctx)
	if runErr != nil && !errors.Is(runErr, context.DeadlineExceeded) {
		return runErr
	}
	if errors.Is(runErr, context.DeadlineExceeded) {
		fmt.Fprintf(stdout, "duration cap hit after %v: %d of %d scenarios completed\n",
			*duration, rep.ScenariosCompleted, *scenarios)
	}

	if snap, err := fetchMetrics(baseURL); err == nil {
		rep.ServerMetrics = snap
		rep.RequestsShed = snap.Counters[obs.MetricRequestsShed]
		rep.FaultsInjected = snap.Counters[faults.MetricInjected]
	} else {
		fmt.Fprintf(stdout, "warning: could not scrape %s/metrics: %v\n", baseURL, err)
	}

	fmt.Fprint(stdout, summarize(rep))
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// flagWasSet reports whether the user passed the named flag explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// selfHost builds the synthetic world and serves the marketing API from an
// in-process listener (wrapped in the fault injector when faultCfg.Rate > 0),
// returning the server, the audience hash pool, and a store closer (a no-op
// when storeDir is empty).
func selfHost(seed int64, numVoters, logRows, shedCap int, faultCfg faults.Config, storeDir string, fsync store.FsyncMode, privCfg privacy.Config) (*httptest.Server, []string, func(), error) {
	flCfg := voter.DefaultGeneratorConfig(demo.StateFL, seed+1)
	flCfg.NumVoters = numVoters
	fl, err := voter.Generate(flCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	pop, err := population.Build(population.Config{Seed: seed + 3}, fl)
	if err != nil {
		return nil, nil, nil, err
	}
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := platform.DefaultConfig(seed + 4)
	cfg.Training.LogRows = logRows
	// Disable the (default 1%) ad-review rejection so the request counts of
	// a fixed-seed run are exactly reproducible, which the benchmark report
	// relies on. Review strictness has its own coverage in internal/platform.
	cfg.ReviewRejectProb = 0
	plat, err := platform.New(cfg, pop, behave)
	if err != nil {
		return nil, nil, nil, err
	}
	limits := marketing.DefaultServerLimits()
	limits.MaxInFlight = shedCap
	reg := obs.NewRegistry()
	// Delivery-phase metrics share the registry the /metrics scrape reads.
	plat.SetObserver(reg, nil)
	serverOpts := []marketing.ServerOption{marketing.WithLimits(limits), marketing.WithRegistry(reg)}
	if privCfg.Enabled() {
		serverOpts = append(serverOpts, marketing.WithPrivacy(privCfg))
	}
	closeStore := func() {}
	if storeDir != "" {
		st, err := store.Open(store.Options{Dir: storeDir, Fsync: fsync, Metrics: reg})
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := st.Recover(plat); err != nil {
			return nil, nil, nil, err
		}
		serverOpts = append(serverOpts, marketing.WithPersister(st))
		closeStore = func() {
			if _, err := st.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "adload: closing store: %v\n", err)
			}
		}
	}
	srv, err := marketing.NewServer(plat, serverOpts...)
	if err != nil {
		closeStore()
		return nil, nil, nil, err
	}
	var handler http.Handler = srv.Handler()
	if faultCfg.Rate > 0 {
		// Register fault counters in the server's own registry so the
		// end-of-run /metrics scrape reports them next to the serving stats.
		inj, err := faults.New(faultCfg, srv.Metrics())
		if err != nil {
			closeStore()
			return nil, nil, nil, err
		}
		handler = inj.Middleware(handler)
	}
	return httptest.NewServer(handler), hashesFromRecords(fl.Records), closeStore, nil
}

// hashesFromExtract derives the audience hash pool from an FL-layout voter
// extract, the same client-side hashing path the audit tooling uses.
func hashesFromExtract(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := voter.ParseFL(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return hashesFromRecords(records), nil
}

func hashesFromRecords(records []voter.Record) []string {
	hashes := make([]string, 0, len(records))
	for i := range records {
		r := &records[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return hashes
}

// probeTopology asks the target whether it is a router (GET /v1/topology)
// and returns its shard count; 0 means a single-process target (or an
// unreachable one — the load run itself will surface that).
func probeTopology(baseURL string) int {
	httpClient := &http.Client{Timeout: 5 * time.Second}
	resp, err := httpClient.Get(baseURL + "/v1/topology")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var topo struct {
		Shards int `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		return 0
	}
	return topo.Shards
}

// fetchMetrics scrapes the target's GET /metrics endpoint.
func fetchMetrics(baseURL string) (*obs.Snapshot, error) {
	httpClient := &http.Client{Timeout: 10 * time.Second}
	resp, err := httpClient.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// summarize renders the human-readable result: the per-operation latency
// table plus, when available, the server-side per-endpoint view.
func summarize(rep *loadgen.Report) string {
	title := fmt.Sprintf("Serving load test — %s mode, seed %d, %d/%d scenarios",
		rep.Mode, rep.Seed, rep.ScenariosCompleted, rep.Scenarios)
	rows := make([]report.ServingRow, 0, len(rep.Operations))
	for _, op := range loadgen.Ops {
		o, ok := rep.Operations[op]
		if !ok {
			continue
		}
		rows = append(rows, report.ServingRow{
			Op:       op,
			Requests: o.Requests,
			Errors:   o.Errors,
			P50Ms:    o.Latency.P50Ms,
			P90Ms:    o.Latency.P90Ms,
			P99Ms:    o.Latency.P99Ms,
			MaxMs:    o.Latency.MaxMs,
		})
	}
	out := report.ServingSummary(title, rows, rep.WallSeconds, rep.ThroughputRPS, rep.Errors,
		report.ServingResilience{
			Retries:        rep.Retries,
			BreakerRejects: rep.BreakerRejects,
			RequestsShed:   rep.RequestsShed,
			FaultsInjected: rep.FaultsInjected,
		})
	if rep.ServerMetrics != nil {
		out += fmt.Sprintf("server: %d requests counted, %d in flight at scrape\n",
			rep.ServerMetrics.Counters[obs.MetricRequests],
			rep.ServerMetrics.Gauges[obs.MetricInFlight])
	}
	return out
}
