// Command perfbench is the repository's benchmark. It assembles one
// workload through the simulator's public constructors, times its own calls
// into them, checks that the simulated outputs are correct, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload pace-dense --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate traced
// run that reports the per-layer metrics: counts from the program's public
// counters, CPU and allocation shares per module from profiles taken after
// the checkpoint, and a unit-cost ladder reconciled
// against the measured wall time. Spans around every call the benchmark
// makes into the program are written to .bench_build/perfbench/spans/.
//
// Build and run it from the repository root with bash perfbench/run.sh.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

//go:embed golden.json
var goldenJSON []byte

// outDir holds the benchmark's own outputs, relative to the checkout root.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pace-dense, poll-server or fleet-1024")
	seed := fs.Uint64("seed", goldenSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds the timed phase measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (pace-dense, poll-server, fleet-1024), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	man := manifest(w, *seed, *seconds, *trace == 1)
	mj, _ := json.Marshal(man)
	fmt.Fprintf(stdout, "# manifest %s\n", mj)

	r, err := measure(w, *seed, *seconds, *trace == 1, g)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if r.spans != nil {
		if err := r.spans.write(outDir+"/spans", w.name, *seed, man); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "# digest %s (checkpoint at slice %d, virtual %.0f ms)\n", r.digest, w.checkpoint, r.checkpointVirtualMS)
	if !r.goldenChecked {
		fmt.Fprintf(stdout, "# no golden digest for seed %d on %s; determinism is checked against earlier runs only\n", *seed, runtime.GOARCH)
	}
	fmt.Fprintf(stdout, "# checks: %d made, %d failed\n", r.checks.made, r.checks.failed)
	for i, f := range r.checks.failures {
		if i == 20 {
			fmt.Fprintf(stdout, "#   ... and %d more\n", len(r.checks.failures)-i)
			break
		}
		fmt.Fprintf(stdout, "#   FAIL %s\n", f)
	}
	for _, sh := range []struct {
		what string
		m    map[string]float64
	}{{"cpu", r.cpuShares}, {"alloc", r.allocShares}} {
		if sh.m == nil {
			continue
		}
		keys := make([]string, 0, len(sh.m))
		for k := range sh.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "# %s shares:", sh.what)
		for _, k := range keys {
			fmt.Fprintf(stdout, " %s=%.4f", k, sh.m[k])
		}
		fmt.Fprintln(stdout)
	}
	for _, m := range r.metrics {
		if m.base != "" {
			fmt.Fprintf(stdout, "# %-32s %14.6g %-8s = %s\n", m.name, m.value, m.unit, m.base)
		} else {
			fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.checks.failed == 0,
		Attempted: r.checks.made,
		Failed:    r.checks.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// manifest records what produced a run.
func manifest(w *workload, seed uint64, seconds float64, traced bool) map[string]any {
	m := map[string]any{
		"workload":          w.name,
		"params":            w.params,
		"op":                w.opUnit,
		"slice_ms":          w.slice.Millis(),
		"warmup_ms":         w.warmup.Millis(),
		"checkpoint_slices": w.checkpoint,
		"setup_batches":     setupBatches,
		"setup_batch_ms":    setupBatch.Milliseconds(),
		"seed":              seed,
		"seconds":           seconds,
		"trace":             traced,
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"goarch":            runtime.GOARCH,
		"vcs_revision":      "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["vcs_revision"] = s.Value
			case "vcs.modified":
				m["vcs_modified"] = s.Value
			}
		}
	}
	return m
}

// metric is one reported number; base, for a ratio, shows what it was
// computed from.
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p/100*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
