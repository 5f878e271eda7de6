// Command adplatform serves the simulated advertising platform's marketing
// API over TCP, for driving the audit from external tooling (or from the
// examples in this repository). It builds the synthetic world — FL/NC voter
// registries, the matched user population, and the platform with its trained
// delivery-optimization model — then listens until interrupted.
//
// Usage:
//
//	adplatform -addr 127.0.0.1:8399 -scale bench -seed 7
//
// The server also writes the generated voter extracts to -voterdir (if set),
// so an external auditor can parse them exactly as it would the real public
// records.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/store"
	"github.com/adaudit/impliedidentity/internal/voter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adplatform:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adplatform", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8399", "listen address")
	seed := fs.Int64("seed", 1, "world seed")
	voters := fs.Int("voters", 40000, "voters per state")
	logRows := fs.Int("logrows", 30000, "engagement-log rows for eAR training")
	voterDir := fs.String("voterdir", "", "directory to write FL/NC voter extracts into (optional)")
	faultRate := fs.Float64("fault-rate", 0, "chaos: probability a request draws an injected fault (0 disables)")
	faultSeed := fs.Int64("fault-seed", 1, "chaos: fault-schedule seed (same seed, same schedule)")
	faultKinds := fs.String("fault-kinds", "all", "chaos: comma-separated fault kinds (latency,429,5xx,drop,slow) or all")
	shedCap := fs.Int("shed-cap", marketing.DefaultServerLimits().MaxInFlight, "max in-flight requests before shedding with 429 (0 disables)")
	reviewReject := fs.Float64("review-reject", -1, "override the ad-review rejection probability (0..1; negative keeps the default) — every shard in one fleet must agree, and chaos soaks set 0 so a replayed create cannot diverge on a review re-roll")
	storeDir := fs.String("store-dir", "", "durable state directory: WAL + snapshots, recovered on boot (empty disables durability)")
	fsyncMode := fs.String("fsync", "always", "WAL fsync discipline: always, interval, or none")
	snapshotEvery := fs.Int("snapshot-every", 5000, "write a snapshot and compact the WAL every N records (0 disables automatic snapshots)")
	deliveryWorkers := fs.Int("delivery-workers", 1, "default delivery shard count for /v1/deliver (1 = single shard; requests may override)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for draining in-flight requests (must exceed the longest /v1/deliver day)")
	privacyK := fs.Int("privacy-k", 0, "insights privacy: k-anonymity threshold for breakdown cells and minimum audience (0 disables suppression)")
	privacyEpsilon := fs.Float64("privacy-epsilon", 0, "insights privacy: DP noise parameter epsilon (0 disables noise; smaller = noisier)")
	privacySeed := fs.Int64("privacy-seed", 1, "insights privacy: noise-stream seed (same seed, same noise — keep it per-deployment, not per-query)")
	if err := fs.Parse(args); err != nil {
		return err
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

	fmt.Printf("generating registries (%d voters per state)...\n", *voters)
	flCfg := voter.DefaultGeneratorConfig(demo.StateFL, *seed+1)
	flCfg.NumVoters = *voters
	ncCfg := voter.DefaultGeneratorConfig(demo.StateNC, *seed+2)
	ncCfg.NumVoters = *voters
	fl, err := voter.Generate(flCfg)
	if err != nil {
		return err
	}
	nc, err := voter.Generate(ncCfg)
	if err != nil {
		return err
	}
	if *voterDir != "" {
		if err := writeExtracts(*voterDir, fl, nc); err != nil {
			return err
		}
	}

	fmt.Println("building population and training the platform...")
	pop, err := population.Build(population.Config{Seed: *seed + 3}, fl, nc)
	if err != nil {
		return err
	}
	behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
	if err != nil {
		return err
	}
	cfg := platform.DefaultConfig(*seed + 4)
	cfg.Training.LogRows = *logRows
	cfg.DeliveryWorkers = *deliveryWorkers
	if *reviewReject >= 0 {
		if *reviewReject > 1 {
			return fmt.Errorf("-review-reject %v out of range [0,1]", *reviewReject)
		}
		cfg.ReviewRejectProb = *reviewReject
	}
	plat, err := platform.New(cfg, pop, behave)
	if err != nil {
		return err
	}
	limits := marketing.DefaultServerLimits()
	limits.MaxInFlight = *shedCap
	reg := obs.NewRegistry()
	// Delivery-phase metrics (ticks/sec, auctions/sec, merge time) land in
	// the same registry the HTTP middleware reports through GET /metrics.
	plat.SetObserver(reg, nil)
	serverOpts := []marketing.ServerOption{marketing.WithLimits(limits), marketing.WithRegistry(reg)}
	if privCfg.Enabled() {
		// Single-process privatization. In a fleet, set these flags on the
		// router instead (merge-then-privatize): a privatizing shard makes the
		// coordinator refuse its insights.
		serverOpts = append(serverOpts, marketing.WithPrivacy(privCfg))
		fmt.Printf("insights privacy armed: level %s, k=%d, epsilon=%v, seed %d\n",
			privCfg.Level, privCfg.K, privCfg.Epsilon, privCfg.Seed)
	}

	// Durable state: recover the account from disk (the world itself is
	// rebuilt from the seed above), then persist every mutation before its
	// response is acked.
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(store.Options{
			Dir:           *storeDir,
			Fsync:         fsync,
			SnapshotEvery: *snapshotEvery,
			Metrics:       reg,
		})
		if err != nil {
			return err
		}
		info, err := st.Recover(plat)
		if err != nil {
			return err
		}
		fmt.Printf("durable store at %s (fsync=%s): %s\n", *storeDir, fsync, info)
		serverOpts = append(serverOpts, marketing.WithPersister(st))
	}

	srv, err := marketing.NewServer(plat, serverOpts...)
	if err != nil {
		return err
	}
	var handler http.Handler = srv.Handler()
	if *faultRate > 0 {
		inj, err := faults.New(faults.Config{Seed: *faultSeed, Rate: *faultRate, Kinds: kinds}, srv.Metrics())
		if err != nil {
			return err
		}
		handler = inj.Middleware(handler)
		fmt.Printf("fault injection armed: rate %.2f, seed %d, kinds %v\n", *faultRate, *faultSeed, kinds)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("marketing API listening at http://%s (%d users); metrics at /metrics, liveness at /healthz\n",
		ln.Addr(), pop.Len())
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	// Serve until the listener fails or a shutdown signal arrives, then
	// drain in-flight requests and log the final serving counters so a
	// load-test session ends with a server-side record. A drain that runs
	// out of budget still closes the store: it must flush and snapshot
	// whatever was acked, or the next boot pays a full WAL replay (and a
	// mid-deliver session is in-memory only, so nothing durable is lost by
	// cutting it).
	drainErr := marketing.ServeUntilSignal(httpSrv, ln, *drainTimeout)
	if st != nil {
		// In-flight requests are drained (or cut), so the WAL tail is final:
		// flush it, write the shutdown snapshot, and log where a restart will
		// resume.
		rp, err := st.Close()
		if err != nil {
			return errors.Join(drainErr, fmt.Errorf("closing store: %w", err))
		}
		fmt.Printf("store closed: restart recovers from snapshot seq %d + %d WAL records\n",
			rp.SnapshotSeq, rp.TailRecords)
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("final serving metrics:")
	fmt.Print(srv.Metrics().Snapshot().String())
	return nil
}

func writeExtracts(dir string, fl, nc *voter.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	flPath := filepath.Join(dir, "fl_voter_extract.txt")
	f, err := os.Create(flPath)
	if err != nil {
		return err
	}
	if err := voter.WriteFL(f, fl.Records); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	ncPath := filepath.Join(dir, "ncvoter.txt")
	g, err := os.Create(ncPath)
	if err != nil {
		return err
	}
	if err := voter.WriteNC(g, nc.Records); err != nil {
		return errors.Join(err, g.Close())
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", flPath, ncPath)
	return nil
}
