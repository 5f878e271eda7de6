// Command perfbench is the repository's benchmark. It runs one workload
// against the program through its public packages, checks the program's
// outputs, and prints the workload's metrics. See README.md in this
// directory for the workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// maxGenLagShare is the share of the measured window by which the load
// generator's p99 lateness may exceed its schedule before the run is
// declared invalid: past it the offered load was not the stated load.
const maxGenLagShare = 0.01

var workloads = map[string]func(Options) (*Report, error){
	"audit": runAudit,
	"serve": runServe,
	"fleet": runFleet,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload to run: audit, serve or fleet")
	seed := fset.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fset.Int("seconds", 20, "length of the measured window in seconds")
	trace := fset.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fset.Parse(args); err != nil {
		return 2, err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want audit, serve or fleet)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	scratch, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	o := Options{Workload: *workload, Seed: *seed, Window: time.Duration(*seconds) * time.Second, Trace: *trace == 1, ScratchDir: scratch}
	rep, err := runWorkload(o)
	if err != nil {
		return 1, err
	}
	if lag := rep.Layers["bench.gen_lag_p99_ms"]; lag > maxGenLagShare*ms(o.Window) {
		return 3, fmt.Errorf("run invalid: load generator p99 lateness %.1f ms exceeds %.0f%% of the %v window",
			lag, 100*maxGenLagShare, o.Window)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return 1, err
	}
	rep.E2E["peak_rss_mb"] = peak
	if st := rep.SelfTimes; st != nil {
		for _, name := range []string{"marketing.deliver", "coordinator.deliver"} {
			if s := st[name]; s != nil && s.Count > 0 {
				rep.Layers[name+".self_ms"] = s.SelfMs / float64(s.Count)
			}
		}
	}

	correct := len(rep.Violations) == 0
	for _, v := range rep.Violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	if err := printReport(stdout, o, args, rep, correct); err != nil {
		return 1, err
	}
	if !correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// printReport writes the run envelope and details as one JSON line, a
// human-readable table of the metrics, and last the result line.
func printReport(w io.Writer, o Options, args []string, rep *Report, correct bool) error {
	table := e2eUnits
	values := rep.E2E
	if o.Trace {
		table, values = layerUnits, rep.Layers
	}
	metrics := map[string]Metric{}
	for _, m := range table {
		metrics[m.name] = Metric{Value: values[m.name], Unit: m.unit}
	}
	errorFrac := 0.0
	if rep.Attempted > 0 {
		errorFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	detail := map[string]any{
		"envelope":   envelope(o, args, rep),
		"error_frac": errorFrac,
		"classes":    rep.Classes,
	}
	if o.Trace {
		detail["self_times"] = rep.SelfTimes
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)

	for _, m := range table {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	fmt.Fprintf(w, "%-40s %14.4f %s\n", "error_frac", errorFrac, "ratio")

	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{correct, max(rep.Attempted, 1), rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}

// envelope records what produced the numbers: the source, the toolchain,
// the host and the workload's inputs.
func envelope(o Options, args []string, rep *Report) map[string]any {
	env := map[string]any{
		"schema":       "perfbench/v1",
		"workload":     o.Workload,
		"seed":         o.Seed,
		"window_s":     o.Window.Seconds(),
		"trace":        o.Trace,
		"argv":         append([]string{filepath.Base(os.Args[0])}, args...),
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":      gitRev(),
		"source_tree":  sourceDigest("."),
		"setup_builds": setupRepeats,
	}
	for k, v := range rep.Extra {
		env[k] = v
	}
	return env
}

// gitRev is the VCS revision stamped into the binary, when it was built in
// a git checkout.
func gitRev() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod, so that runs of a
// checkout without git history can still be tied to the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
