// Command adrouter serves the marketing API over a fleet of adplatform shard
// backends. It is the multi-process face of the platform: advertiser tooling
// (cmd/adload, cmd/adaudit, curl) points at the router exactly as it would at
// a single adplatform, while CRUD fans out to every shard and delivery days
// run the cross-shard two-phase budget protocol. For a fixed (world seed,
// delivery seed, shard count) the fleet's output is byte-identical to the
// single-process engine with the same worker count.
//
// Every backend must be built with the SAME world flags (-seed, -voters,
// -logrows); the router asserts cross-shard agreement on every response and
// fails loudly on divergence.
//
// With -supervise the router also runs the fleet supervisor: it probes every
// shard, quarantines one that stops answering (CRUD keeps running against the
// survivors, journaled for the absentee), and — when -shard-cmd is given — owns
// the shard child processes outright: it spawns them at boot and resurrects a
// dead one under the SAME shard index, replaying the journal gap and gating
// readmission on a cross-shard state digest.
//
// Usage:
//
//	adrouter -addr 127.0.0.1:8400 \
//	  -shards http://127.0.0.1:8401,http://127.0.0.1:8402
//
//	adrouter -addr 127.0.0.1:8400 -supervise \
//	  -shards http://127.0.0.1:8401,http://127.0.0.1:8402 \
//	  -shard-cmd './bin/adplatform -addr {addr} -store-dir wal/shard{shard}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/adaudit/impliedidentity/internal/coordinator"
	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/privacy"
	"github.com/adaudit/impliedidentity/internal/supervisor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adrouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adrouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8400", "listen address")
	shards := fs.String("shards", "", "comma-separated shard backend base URLs, in shard order (required)")
	maxFanout := fs.Int("max-fanout", 0, "max concurrent backend calls per fan-out (0 = all shards at once)")
	dayRetries := fs.Int("day-retries", 5, "delivery-day attempts before giving up (a shard crash mid-day costs one attempt)")
	dayBackoff := fs.Duration("day-backoff", 2*time.Second, "initial wait between delivery-day attempts (doubles, capped at 8x)")
	waitReady := fs.Duration("wait-ready", 30*time.Second, "how long to wait for every backend's /healthz at startup (0 skips the check)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for draining in-flight requests")
	supervise := fs.Bool("supervise", false, "run the fleet supervisor: probe shards, quarantine the unreachable, journal their CRUD gap, and rejoin them through the digest gate")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "supervisor probe cadence")
	journalCap := fs.Int("journal-cap", 256, "max journaled mutations while a shard is down; a full journal sheds new writes with 503 + Retry-After")
	shardCmd := fs.String("shard-cmd", "", "shard child command template ({shard} and {addr} expand per shard); the router spawns the children at boot and the supervisor resurrects dead ones under the same index")
	shardLogDir := fs.String("shard-log-dir", "", "directory for per-shard child logs (with -shard-cmd; appended across relaunches)")
	faultRate := fs.Float64("fault-rate", 0, "chaos: probability an outbound shard RPC draws an injected fault (0 disables)")
	faultSeed := fs.Int64("fault-seed", 1, "chaos: fault-schedule seed (same seed, same schedule)")
	faultKinds := fs.String("fault-kinds", "all", "chaos: comma-separated fault kinds (latency,429,5xx,drop,slow) or all")
	privacyK := fs.Int("privacy-k", 0, "insights privacy: k-anonymity threshold applied to the MERGED report (0 disables suppression); shards must stay raw")
	privacyEpsilon := fs.Float64("privacy-epsilon", 0, "insights privacy: DP noise parameter epsilon applied after merge (0 disables noise)")
	privacySeed := fs.Int64("privacy-seed", 1, "insights privacy: noise-stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backends := splitBackends(*shards)
	if len(backends) == 0 {
		return fmt.Errorf("-shards is required (comma-separated backend URLs)")
	}
	kinds, err := faults.ParseKinds(*faultKinds)
	if err != nil {
		return err
	}
	privCfg, err := privacy.FromFlags(*privacyK, *privacyEpsilon, *privacySeed)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	// Fault injection sits on the router->shard RPC path, client-side: every
	// fan-out call and every supervisor probe crosses it, exactly like a flaky
	// network between router and fleet. Injected error ANSWERS must not flap
	// the health model; only transport silence scores toward down.
	var transport http.RoundTripper
	if *faultRate > 0 {
		inj, err := faults.New(faults.Config{Seed: *faultSeed, Rate: *faultRate, Kinds: kinds}, reg)
		if err != nil {
			return err
		}
		transport = faults.NewTransport(nil, inj, nil)
		fmt.Printf("RPC fault injection armed: rate %.2f, seed %d, kinds %v\n", *faultRate, *faultSeed, kinds)
	}
	coord, err := coordinator.New(coordinator.Config{
		Backends:    backends,
		MaxFanout:   *maxFanout,
		DayAttempts: *dayRetries,
		DayBackoff:  *dayBackoff,
		JournalCap:  *journalCap,
		Transport:   transport,
		Privacy:     privCfg,
	}, reg)
	if err != nil {
		return err
	}
	if privCfg.Enabled() {
		fmt.Printf("insights privacy armed on the merged report: level %s, k=%d, epsilon=%v, seed %d\n",
			privCfg.Level, privCfg.K, privCfg.Epsilon, privCfg.Seed)
	}

	// With a command template the router owns the shard children: initial
	// spawn here, resurrection by the supervisor, SIGKILL sweep on exit.
	var rel *supervisor.ProcessRelauncher
	if *shardCmd != "" {
		argv, logs, err := shardCommandLines(*shardCmd, *shardLogDir, backends)
		if err != nil {
			return err
		}
		rel, err = supervisor.NewProcessRelauncher(argv, logs)
		if err != nil {
			return err
		}
		for i := range backends {
			if err := rel.Start(i); err != nil {
				rel.StopAll()
				return err
			}
			fmt.Printf("  shard%d child: pid %d (%s)\n", i, rel.Pid(i), strings.Join(argv[i], " "))
		}
		defer rel.StopAll()
	}

	if *waitReady > 0 {
		if err := waitForBackends(backends, *waitReady); err != nil {
			return err
		}
	}
	router, err := coordinator.NewRouter(coord, reg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("router listening at http://%s over %d shard(s); topology at /v1/topology, metrics at /metrics\n",
		ln.Addr(), coord.Shards())
	for i, u := range backends {
		fmt.Printf("  shard%d -> %s\n", i, u)
	}
	httpSrv := &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}

	if *supervise {
		// A nil *ProcessRelauncher must stay a nil interface: re-attach-only
		// mode (an external process manager restarts the children).
		var relIface supervisor.Relauncher
		if rel != nil {
			relIface = rel
		}
		// The supervisor keeps healing the fleet through the drain; on exit
		// the cancel cuts its in-flight pass short before Stop joins it.
		ctx, cancel := context.WithCancel(context.Background())
		sup := supervisor.New(coord, relIface, supervisor.Config{ProbeInterval: *probeInterval, Logf: log.Printf}, reg)
		sup.Start(ctx)
		defer sup.Stop()
		defer cancel()
		fmt.Printf("fleet supervisor running (probe every %s, relaunch %v)\n", *probeInterval, rel != nil)
	}
	drainErr := marketing.ServeUntilSignal(httpSrv, ln, *drainTimeout)
	fmt.Println("final router metrics:")
	fmt.Print(reg.Snapshot().String())
	return drainErr
}

// shardCommandLines renders the -shard-cmd template once per shard:
// {shard} -> the shard index, {addr} -> the backend's host:port. The rendered
// line is whitespace-split (no shell), so paths with spaces need the caller to
// avoid them — a restriction worth the determinism of not involving a shell.
func shardCommandLines(tmpl, logDir string, backends []string) ([][]string, []string, error) {
	argv := make([][]string, len(backends))
	logs := make([]string, len(backends))
	for i, backend := range backends {
		u, err := url.Parse(backend)
		if err != nil || u.Host == "" {
			return nil, nil, fmt.Errorf("backend %q: cannot derive {addr}: %v", backend, err)
		}
		line := strings.ReplaceAll(tmpl, "{shard}", strconv.Itoa(i))
		line = strings.ReplaceAll(line, "{addr}", u.Host)
		argv[i] = strings.Fields(line)
		if len(argv[i]) == 0 {
			return nil, nil, fmt.Errorf("-shard-cmd rendered empty for shard %d", i)
		}
		if logDir != "" {
			if err := os.MkdirAll(logDir, 0o755); err != nil {
				return nil, nil, err
			}
			logs[i] = filepath.Join(logDir, fmt.Sprintf("shard%d.log", i))
		}
	}
	return argv, logs, nil
}

func splitBackends(raw string) []string {
	var out []string
	for _, part := range strings.Split(raw, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// waitForBackends polls every backend's liveness endpoint until all answer or
// the budget runs out, so the router can start before (or while) its fleet
// does — convenient for process supervisors that start everything at once.
func waitForBackends(backends []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: 2 * time.Second}
	for _, u := range backends {
		for {
			resp, err := client.Get(u + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("backend %s not ready within %s", u, budget)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	return nil
}
