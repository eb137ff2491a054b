package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	stmetrics "softtimers/internal/metrics"
	"softtimers/internal/timerwheel"
)

const cpuProfileHz = 250

// minSlices is the fewest slices a run times, so slice_ms_p99 is a median
// over at least ten windows.
const minSlices = 1000

// p99Window is how many consecutive slices each p99 behind slice_ms_p99 is
// taken over.
const p99Window = 100

// traceBlock is how long each profiled or unprofiled block of a traced run
// lasts.
const traceBlock = time.Second

// tracedMemProfileRate samples allocations in the profiled blocks finely
// enough to attribute them per layer.
const tracedMemProfileRate = 4096

// setupBatches is how many batches of set-ups a run times. A batch
// assembles and starts the workload back to back until it has lasted
// setupBatch: one set-up can take well under a millisecond, too short to
// time alone against timer and cache noise. setup_s is the median over the
// batches of the mean set-up time in each.
const (
	setupBatches = 7
	setupBatch   = 250 * time.Millisecond
)

// result is everything one run reports.
type result struct {
	metrics             []metric
	checks              checker
	digest              string
	goldenChecked       bool
	checkpointVirtualMS float64
	spans               *spanLog
	// cpuShares and allocShares hold every bucket the profiles were
	// attributed to, for the report.
	cpuShares, allocShares map[string]float64
}

// rtSample reads the runtime metrics the benchmark uses.
type rtSample struct {
	allocBytes, allocObjects uint64
	gcCPU, idleCPU, totalCPU float64
	sched                    *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds", "/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), idleCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
		sched: s[5].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile, in µs, of the scheduling latencies
// recorded between two reads.
func schedP99(a, b *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counts are the program's public counters, summed over the workload.
type counts map[string]float64

func readCounts(in *instance) counts {
	c := counts{"ops": in.ops(), "virtual_ms": in.now().Millis()}
	for _, f := range in.facilities {
		s := f.Stats()
		c["checks"] += float64(s.Checks)
		c["fired"] += float64(s.Fired)
	}
	for _, k := range in.kernels {
		a := k.Accounting()
		c["triggers"] += float64(k.Meter().N())
		c["syscalls"] += float64(a.Syscalls)
		c["interrupts"] += float64(a.Interrupts)
		c["switches"] += float64(a.Switches)
	}
	for _, e := range in.engines {
		c["events"] += float64(e.Fired)
	}
	addSnapshotCounts(c, in.snapshot())
	if g := in.group; g != nil {
		st := g.SyncStats()
		c["rounds"] = float64(st.Rounds)
		for _, s := range st.Shards {
			c["shard_rounds"] += float64(s.Rounds)
			c["idle_rounds"] += float64(s.IdleRounds)
			c["granted_ns"] += float64(s.GrantedNS)
			c["reached_ns"] += float64(s.ReachedNS)
		}
	}
	return c
}

// snapshotCounters maps a counter key suffix, within the nic., link. or
// switch. namespace of any host or of the topology, to the count it adds
// to.
var snapshotCounters = []struct{ space, suffix, count string }{
	{"nic.", ".rx_packets", "nic_rx"},
	{"nic.", ".rx_dropped", "nic_rx_drop"},
	{"nic.", ".rx_interrupts", "nic_rx_intr"},
	{"nic.", ".polls", "nic_polls"},
	{"nic.", ".polled_packets", "nic_polled"},
	{"link.", ".sent", "link_sent"},
	{"link.", ".dropped", "link_drop"},
	{"link.", ".lost", "link_drop"},
	{"switch.", ".forwarded", "switch_fwd"},
}

func addSnapshotCounts(c counts, s *stmetrics.Snapshot) {
	for key, v := range s.Counters {
		for _, sc := range snapshotCounters {
			if strings.HasSuffix(key, sc.suffix) && (strings.HasPrefix(key, sc.space) || strings.Contains(key, "."+sc.space)) {
				c[sc.count] += float64(v)
			}
		}
	}
}

func (c counts) delta(base counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// measure runs one workload: timed set-ups, warmup, then the timed phase
// in fixed virtual slices, with the output checks at the checkpoint.
func measure(w *workload, seed uint64, seconds float64, traced bool, g goldens) (*result, error) {
	r := &result{}
	if traced {
		r.spans = newSpanLog()
	}
	sp := r.spans

	// Set-up: time setupBatches batches of back-to-back set-ups and keep
	// the last instance. Each set-up drops the one before, so the
	// collector's work on set-up garbage is timed with it.
	var in *instance
	var setupS, setupBytes, setupAllocs []float64
	for b := 0; b < setupBatches; b++ {
		in = nil
		runtime.GC()
		a0 := readRuntime()
		t0 := time.Now()
		var n int
		var d time.Duration
		for ; n == 0 || d < setupBatch; n++ {
			in = nil
			sp.begin("assemble")
			in = w.assemble(seed)
			sp.end()
			sp.begin("start")
			in.start()
			sp.end()
			d = time.Since(t0)
		}
		a1 := readRuntime()
		setupS = append(setupS, d.Seconds()/float64(n))
		setupBytes = append(setupBytes, float64(a1.allocBytes-a0.allocBytes)/float64(n*in.hosts))
		setupAllocs = append(setupAllocs, float64(a1.allocObjects-a0.allocObjects)/float64(n*in.hosts))
	}

	sp.begin("warmup")
	in.advance(w.warmup)
	sp.end()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeapMB := float64(ms.HeapAlloc) / 1e6

	if in.markWindow != nil {
		in.markWindow()
	}
	sp.begin("snapshot")
	c0 := readCounts(in)
	sp.end()
	rt0 := readRuntime()
	cpu0 := processCPU()

	sliceMS := make([]float64, 0, 1<<16)
	var pendingSum, depthSum float64
	// Checkpoint and profiler set-up work is not part of the timed phase.
	var excluded, excludedCPU time.Duration
	var excludedAlloc uint64
	// After the checkpoint a traced run alternates blocks with tracing off
	// and on: the CPU profiler, allocation sampling at
	// tracedMemProfileRate and slice spans are all on in the on blocks
	// only. Each off block is the baseline for the on block after it, so
	// host load that drifts over the run cancels out of the tracing
	// overhead.
	defaultMemProfileRate := runtime.MemProfileRate
	var blocks []traceStretch
	var cpuProfs []*bytes.Buffer
	var allocBefore []allocRecord
	tracing, profiling := false, false
	var blockStart time.Time
	wall0 := time.Now()
	for i := 0; ; i++ {
		if i == w.checkpoint {
			t, cpu := time.Now(), processCPU()
			a := readRuntime().allocBytes
			sp.begin("checkpoint")
			r.checkpointVirtualMS = in.now().Millis()
			r.digest = digest(in)
			in.shapes(&r.checks)
			r.goldenChecked = checkGolden(&r.checks, g, runtime.GOARCH, w.name, seed, r.digest)
			if err := checkRepeat(&r.checks, outDir+"/digests", w.name, seed, r.digest); err != nil {
				return nil, err
			}
			sp.end()
			excludedAlloc += readRuntime().allocBytes - a
			excluded += time.Since(t)
			excludedCPU += processCPU() - cpu
		}
		elapsed := time.Since(wall0) - excluded
		if traced && i >= w.checkpoint && (!tracing || time.Since(blockStart) >= traceBlock) {
			t, cpu := time.Now(), processCPU()
			if !tracing {
				// Room for the rest of the run at the pace so far, so
				// recording slices and spans allocates nothing while the
				// profiles run.
				more := int(2*float64(i)*(seconds/elapsed.Seconds())) + 64
				sliceMS = slices.Grow(sliceMS, more)
				sp.reserve(more)
				runtime.GC()
				allocBefore = allocProfile()
				sp.pause(true)
				tracing = true
			} else if profiling {
				pprof.StopCPUProfile()
				runtime.MemProfileRate = defaultMemProfileRate
				sp.pause(true)
				profiling = false
			} else {
				buf := new(bytes.Buffer)
				// A rate above the default 100 Hz gives the thin layers
				// (the shard round machinery) enough samples to show;
				// Linux delivers CPU-time ticks at most at its scheduler
				// HZ, often 250. StartCPUProfile then warns on stderr that
				// the rate is already set, and keeps this one.
				runtime.SetCPUProfileRate(cpuProfileHz)
				if err := pprof.StartCPUProfile(buf); err != nil {
					return nil, fmt.Errorf("start cpu profile: %w", err)
				}
				cpuProfs = append(cpuProfs, buf)
				runtime.MemProfileRate = tracedMemProfileRate
				sp.pause(false)
				profiling = true
			}
			blocks = append(blocks, traceStretch{})
			blockStart = time.Now()
			excluded += time.Since(t)
			excludedCPU += processCPU() - cpu
		}
		if i >= w.checkpoint && i >= minSlices && elapsed >= time.Duration(seconds*float64(time.Second)) && (!traced || len(blocks) > 1 && blocks[1].n > 0) {
			break
		}
		sp.begin("slice")
		t := time.Now()
		in.advance(w.slice)
		d := time.Since(t)
		sp.end()
		ms := float64(d.Nanoseconds()) / 1e6
		sliceMS = append(sliceMS, ms)
		if tracing {
			b := &blocks[len(blocks)-1]
			b.ms += ms
			b.n++
		}
		var pend, depth int
		for _, f := range in.facilities {
			pend += f.Pending()
		}
		for _, e := range in.engines {
			depth += e.Pending()
		}
		pendingSum += float64(pend) / float64(len(in.facilities))
		depthSum += float64(depth) / float64(len(in.engines))
	}
	cpu1 := processCPU()
	rt1 := readRuntime()
	var allocAfter []allocRecord
	if profiling {
		pprof.StopCPUProfile()
		runtime.MemProfileRate = defaultMemProfileRate
	}
	if tracing {
		runtime.GC()
		allocAfter = allocProfile()
		sp.pause(false)
	}
	sp.begin("snapshot")
	c1 := readCounts(in)
	sp.end()
	d := c1.delta(c0)

	var timedMS float64
	for _, x := range sliceMS {
		timedMS += x
	}
	ops := d["ops"]
	n := float64(len(sliceMS))
	sorted := append([]float64(nil), sliceMS...)
	add := func(name string, v float64, unit, base string) {
		r.metrics = append(r.metrics, metric{name, v, unit, base})
	}
	if !traced {
		add("setup_s", median(setupS), "s", fmt.Sprintf("median over %d batches of at least %v of the mean set-up", len(setupS), setupBatch))
		add("ops_per_s", ratio(ops, timedMS/1e3), "1/s", fmt.Sprintf("%.0f ops (%s) / %.3f s over %d slices", ops, w.opUnit, timedMS/1e3, len(sliceMS)))
		add("slice_ms_p50", percentile(sorted, 50), "ms", fmt.Sprintf("of %d slices of %.0f virtual ms", len(sliceMS), w.slice.Millis()))
		add("slice_ms_p99", windowedP99(sliceMS), "ms", fmt.Sprintf("median over %d windows of %d slices of each window's p99", len(sliceMS)/p99Window, p99Window))
		alloc := float64(rt1.allocBytes-rt0.allocBytes) - float64(excludedAlloc)
		add("alloc_bytes_per_op", ratio(alloc, ops), "B/op", fmt.Sprintf("%.0f B / %.0f ops", alloc, ops))
		add("live_heap_mb", liveHeapMB, "MB", "heap in use after set-up, warmup and a GC")
		return r, nil
	}

	// Per-layer metrics from the traced run.
	cpuShare, cpuSamples, err := cpuShares(cpuProfs)
	if err != nil {
		return nil, err
	}
	allocShare, allocTotal := allocShares(allocBefore, allocAfter)
	cpuBase := fmt.Sprintf("of %d CPU samples", cpuSamples)
	r.cpuShares, r.allocShares = cpuShare, allocShare
	allocBase := fmt.Sprintf("of %.0f sampled bytes", float64(allocTotal))

	wheels := float64(len(in.facilities))
	pendingMean := ratio(pendingSum, n)
	depthMean := ratio(depthSum, n)
	nsEvent := nsPerEvent(int(depthMean+0.5), seed)
	// Virtual µs (wheel ticks) between trigger checks on one wheel.
	checkStep := ratio(d["virtual_ms"]*1e3*wheels, d["checks"])
	nsDue := nsPerDue(int(pendingMean+0.5), timerwheel.Tick(checkStep+0.5), seed)
	nsTrigger := nsPerTrigger(int(pendingMean+0.5), seed)
	nsForward := nsPerForward(in.hosts, seed)

	perOp := func(name, key, what string) {
		add(name, ratio(d[key], ops), "1/op", fmt.Sprintf("%.0f %s / %.0f ops", d[key], what, ops))
	}
	share := func(layer string) {
		add(layer+".self_frac", cpuShare[layer], "frac", cpuBase)
		add(layer+".alloc_frac", allocShare[layer], "frac", allocBase)
	}

	share("timerwheel")
	add("timerwheel.pending_mean", pendingMean, "count", fmt.Sprintf("pending timers per wheel, mean over %d slices, %.0f wheels", len(sliceMS), wheels))
	add("timerwheel.ns_per_due", nsDue, "ns", fmt.Sprintf("per fired timer: wheel Due every %.0f ticks, Advance + re-arm, %d pending", checkStep, int(pendingMean+0.5)))

	share("core")
	perOp("core.checks_per_op", "checks", "trigger checks")
	add("core.fires_per_check", ratio(d["fired"], d["checks"]), "frac", fmt.Sprintf("%.0f fired / %.0f checks", d["fired"], d["checks"]))
	add("core.ns_per_trigger", nsTrigger, "ns", fmt.Sprintf("Facility.Trigger, nothing due, %d pending", int(pendingMean+0.5)))

	share("httpserv")

	share("kernel")
	perOp("kernel.triggers_per_op", "triggers", "trigger states")
	perOp("kernel.syscalls_per_op", "syscalls", "syscalls")
	perOp("kernel.interrupts_per_op", "interrupts", "interrupts")
	perOp("kernel.switches_per_op", "switches", "context switches")

	share("nic")
	perOp("nic.rx_per_op", "nic_rx", "received packets")
	add("nic.pkts_per_poll", ratio(d["nic_polled"], d["nic_polls"]), "1/poll", fmt.Sprintf("%.0f polled packets / %.0f polls", d["nic_polled"], d["nic_polls"]))
	perOp("nic.rx_intr_per_op", "nic_rx_intr", "receive interrupts")
	add("nic.rx_drop_frac", ratio(d["nic_rx_drop"], d["nic_rx"]+d["nic_rx_drop"]), "frac", fmt.Sprintf("%.0f dropped / %.0f arrived", d["nic_rx_drop"], d["nic_rx"]+d["nic_rx_drop"]))

	share("netstack")
	perOp("netstack.sends_per_op", "link_sent", "link sends")
	perOp("netstack.switch_fwd_per_op", "switch_fwd", "switch forwards")
	add("netstack.drop_frac", ratio(d["link_drop"], d["link_sent"]), "frac", fmt.Sprintf("%.0f dropped or lost / %.0f sent", d["link_drop"], d["link_sent"]))
	add("netstack.ns_per_forward", nsForward, "ns", fmt.Sprintf("Link.Send into a %d-port Switch, through delivery", in.hosts))

	share("sim")
	perOp("sim.events_per_op", "events", "events fired")
	var peak int
	for _, e := range in.engines {
		if p := e.MaxPending(); p > peak {
			peak = p
		}
	}
	add("sim.queue_peak", float64(peak), "count", fmt.Sprintf("max over %d engines of the pending high-water mark", len(in.engines)))
	add("sim.ns_per_event", nsEvent, "ns", fmt.Sprintf("Engine.After + fire at depth %d", int(depthMean+0.5)))

	shardCPU := 0.0
	if in.group != nil {
		wallS := time.Since(wall0).Seconds() - excluded.Seconds()
		shardCPU = ratio((cpu1 - cpu0 - excludedCPU).Seconds(), wallS*float64(fleetWorkers))
	}
	add("sim.shard.rounds_per_vms", ratio(d["rounds"], d["virtual_ms"]), "1/ms", fmt.Sprintf("%.0f rounds / %.0f virtual ms", d["rounds"], d["virtual_ms"]))
	add("sim.shard.reach_frac", ratio(d["reached_ns"], d["granted_ns"]), "frac", fmt.Sprintf("%.0f reached / %.0f granted ns", d["reached_ns"], d["granted_ns"]))
	add("sim.shard.idle_round_frac", ratio(d["idle_rounds"], d["shard_rounds"]), "frac", fmt.Sprintf("%.0f idle / %.0f shard-rounds", d["idle_rounds"], d["shard_rounds"]))
	add("sim.shard.cpu_util", shardCPU, "frac", "process CPU / (timed wall x workers); 0 unsharded")
	share("sim.shard")

	add("topology.setup_bytes_per_host", median(setupBytes), "B/host", fmt.Sprintf("median over %d batches of set-ups, %d hosts", len(setupBytes), in.hosts))
	add("topology.setup_allocs_per_host", median(setupAllocs), "1/host", fmt.Sprintf("median over %d batches of set-ups, %d hosts", len(setupAllocs), in.hosts))
	share("topology")

	share("runtime")
	add("runtime.allocs_per_op", ratio(float64(rt1.allocObjects-rt0.allocObjects), ops), "1/op", fmt.Sprintf("%d objects / %.0f ops", rt1.allocObjects-rt0.allocObjects, ops))
	busy := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	add("runtime.gc_frac", ratio(rt1.gcCPU-rt0.gcCPU, busy), "frac", fmt.Sprintf("%.3f GC cpu-s / %.3f busy cpu-s", rt1.gcCPU-rt0.gcCPU, busy))
	add("runtime.sched_wait_p99_us", schedP99(rt0.sched, rt1.sched), "us", "p99 of /sched/latencies over the timed phase")

	var overheads []float64
	for i := 0; i+1 < len(blocks); i += 2 {
		off, on := blocks[i], blocks[i+1]
		if off.n > 0 && on.n > 0 {
			overheads = append(overheads, ratio(on.ms/float64(on.n), off.ms/float64(off.n))-1)
		}
	}
	add("bench.trace_overhead_frac", median(overheads), "frac",
		fmt.Sprintf("median over %d pairs of adjacent blocks of mean slice traced / untraced - 1", len(overheads)))
	explained := d["events"]*nsEvent + d["checks"]*nsTrigger + d["fired"]*nsDue + d["link_sent"]*nsForward
	add("bench.ledger_explained_frac", ratio(explained/1e6, timedMS), "frac",
		fmt.Sprintf("(events x %.0f + checks x %.0f + fired x %.0f + link sends x %.0f ns) / %.0f ms timed", nsEvent, nsTrigger, nsDue, nsForward, timedMS))
	add("bench.self_frac", cpuShare["bench"], "frac", cpuBase)
	add("bench.fail_frac", ratio(float64(r.checks.failed), float64(r.checks.made)), "frac",
		fmt.Sprintf("%d failed / %d checks", r.checks.failed, r.checks.made))
	return r, nil
}

// windowedP99 is the median, over consecutive windows of p99Window
// slices, of each window's 99th percentile. Host load that slows a stretch
// of the run moves the p99 of the windows it covers only; a tail the
// program causes in every window shows in all of them.
func windowedP99(ms []float64) float64 {
	var ps []float64
	for i := 0; i+p99Window <= len(ms); i += p99Window {
		ps = append(ps, percentile(slices.Clone(ms[i:i+p99Window]), 99))
	}
	return median(ps)
}

// traceStretch is one block of a traced run: its slices' summed host time
// and count. Blocks alternate, tracing off in the even ones and on in the
// odd ones.
type traceStretch struct {
	ms float64
	n  int
}
