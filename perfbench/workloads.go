package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"softtimers/internal/core"
	"softtimers/internal/cpu"
	"softtimers/internal/host"
	"softtimers/internal/httpserv"
	"softtimers/internal/kernel"
	"softtimers/internal/metrics"
	"softtimers/internal/nic"
	"softtimers/internal/sim"
	"softtimers/internal/topology"
	"softtimers/internal/workloads"
)

// workload is one benchmark input: how to assemble and start it, how far to
// warm it up in virtual time, and the fixed virtual slice the timed phase
// advances by.
type workload struct {
	name string
	// params describes the inputs for the run manifest.
	params map[string]any
	// opUnit names what one op is.
	opUnit string
	// slice is the virtual time one timed step advances every part of the
	// workload by; warmup runs before timing starts.
	slice, warmup sim.Time
	// checkpoint is the slice count after which the simulated outputs are
	// digested and checked. The timed phase always runs at least this many
	// slices, so every run digests the same virtual prefix whatever the
	// host speed.
	checkpoint int
	// assemble builds the workload; start spins it up. They are separate so
	// the traced run can record a span around each.
	assemble func(seed uint64) *instance
}

// instance is one assembled workload.
type instance struct {
	start   func()
	advance func(d sim.Time)
	now     func() sim.Time
	// ops is the cumulative op count.
	ops func() float64

	hosts      int
	engines    []*sim.Engine
	group      *sim.ShardGroup // nil unless sharded
	kernels    []*kernel.Kernel
	facilities []*core.Facility

	// snapshot merges the workload's deterministic telemetry.
	snapshot func() *metrics.Snapshot
	// outputs writes the workload's own deterministic outputs (op counts,
	// per-flow results) to the digest.
	outputs func(h hash.Hash)
	// shapes checks the paper's shapes that the repository's tests assert.
	shapes func(c *checker)
	// markWindow, when set, opens the window shapes judge rates over; it
	// runs as the timed phase starts.
	markWindow func()
}

// hardclockPeriodUS is the kernel's interrupt-clock period; the §3 bound on
// soft-timer delay beyond the requested latency is one period plus one
// measurement tick.
const hardclockPeriodUS = 1000

var workloadList = []*workload{paceDense, pollServer, fleet1024}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pace-dense exists because it holds the largest soft-timer working set:
// ~256 paced flows, about one pending timer per facility wheel slot, over
// the densest trigger stream of the six system workloads and no network,
// so the timer wheel and the per-trigger check dominate.
var paceDense = &workload{
	name: "pace-dense",
	params: map[string]any{
		"rig": "ST-real-audio", "flows": paceFlows,
		"target_us": "40..4000 log-spaced, jittered by seed", "min_burst_us": 12,
		"tx_cost_ns": int64(paceTxCost), "loop": "open",
	},
	opUnit:     "paced transmission",
	slice:      60 * sim.Millisecond,
	warmup:     50 * sim.Millisecond,
	checkpoint: 25,
	assemble:   assemblePaceDense,
}

const (
	paceFlows = 256
	// paceTxCost is the device transmit work of one paced transmission.
	// The flows' aggregate rate is ~1.4M packets per virtual second, so
	// this keeps transmit work near a fifth of the simulated CPU and every
	// flow on target.
	paceTxCost = 150 * sim.Nanosecond
	// paceTolerance is how far a flow's mean interval may sit from its
	// target, as a share of the target.
	paceTolerance = 0.05
)

type paceFlow struct {
	target      sim.Time
	sent        int64
	first, last sim.Time
}

// checkPaceFlows checks that every flow's mean interval sits near its
// target (TestPacerAchievesTargetRateUnderFineTriggers).
func checkPaceFlows(c *checker, flows []paceFlow) {
	for i, fl := range flows {
		name := fmt.Sprintf("pace.flow%03d.mean_interval", i)
		if fl.sent < 3 {
			c.check(name, false, fmt.Sprintf("only %d transmissions", fl.sent))
			continue
		}
		mean := float64(fl.last-fl.first) / float64(fl.sent-1)
		c.near(name, mean, float64(fl.target), paceTolerance)
	}
}

func assemblePaceDense(seed uint64) *instance {
	d, err := workloads.ByName("ST-real-audio")
	if err != nil {
		panic(err)
	}
	rig := d.Make(seed, cpu.PentiumII300())
	rng := sim.NewRNG(seed ^ 0x9ace)
	flows := make([]paceFlow, paceFlows)
	pacers := make([]*core.Pacer, paceFlows)
	var total int64
	for i := range flows {
		fl := &flows[i]
		// Stratified log-spaced targets: every seed draws the same spread
		// of rates, so the aggregate packet rate barely moves with it.
		u := (float64(i) + rng.Float64()) / paceFlows
		fl.target = sim.Micros(40 * math.Pow(100, u))
		pacers[i] = core.NewPacer(rig.F, fl.target, 12*sim.Microsecond,
			func(now sim.Time) (sim.Time, bool) {
				if fl.sent == 0 {
					fl.first = now
				}
				fl.sent++
				fl.last = now
				total++
				return paceTxCost, true
			})
	}
	in := &instance{
		advance:    rig.Eng.RunFor,
		now:        rig.Eng.Now,
		ops:        func() float64 { return float64(total) },
		hosts:      1,
		engines:    []*sim.Engine{rig.Eng},
		kernels:    []*kernel.Kernel{rig.K},
		facilities: []*core.Facility{rig.F},
		snapshot:   func() *metrics.Snapshot { return rig.K.Metrics().Snapshot() },
	}
	in.start = func() {
		// Start each flow at a random phase within its first period.
		for i, p := range pacers {
			rig.Eng.After(sim.Time(rng.Float64()*float64(flows[i].target)), p.Start)
		}
	}
	in.outputs = func(h hash.Hash) {
		writeInts(h, total)
		for _, fl := range flows {
			writeInts(h, int64(fl.target), fl.sent, int64(fl.first), int64(fl.last))
		}
	}
	in.shapes = func(c *checker) {
		checkPaceFlows(c, flows)
		checkDelayBound(c, []string{"realaudio"}, in.facilities)
	}
	return in
}

// poll-server exists because it is the request path: the paper's Table 8
// server (4 NICs, 48 closed-loop client connections) with per-request
// httpserv scripts and NIC receive work, and few pending soft timers.
// Apache HTTP opens a connection per request while Flash P-HTTP reuses
// them, and interrupt vs soft-poll mode drive the NIC differently, so the
// four cells cover both uses of each layer.
var pollServer = &workload{
	name: "poll-server",
	params: map[string]any{
		"cells": "Apache HTTP + Flash P-HTTP, each interrupt and soft-poll q=15",
		"nics":  4, "connections": 48, "max_poll_ms": 2, "loop": "closed",
	},
	opUnit:     "HTTP response",
	slice:      250 * sim.Millisecond,
	warmup:     500 * sim.Millisecond,
	checkpoint: 100,
	assemble:   assemblePollServer,
}

type pollCell struct {
	name       string
	kind       httpserv.Kind
	persistent bool
	mode       nic.Mode
}

var pollCells = []pollCell{
	{"apache-http-intr", httpserv.Apache, false, nic.Interrupt},
	{"apache-http-poll15", httpserv.Apache, false, nic.SoftPoll},
	{"flash-phttp-intr", httpserv.Flash, true, nic.Interrupt},
	{"flash-phttp-poll15", httpserv.Flash, true, nic.SoftPoll},
}

func assemblePollServer(seed uint64) *instance {
	tbs := make([]*httpserv.Testbed, len(pollCells))
	in := &instance{hosts: len(pollCells)}
	for i, cell := range pollCells {
		tb := httpserv.NewTestbed(httpserv.TestbedConfig{
			Seed: seed,
			NIC: nic.Config{
				Mode:             cell.mode,
				AggregationQuota: 15,
				MaxPoll:          2 * sim.Millisecond,
			},
			Server:      httpserv.Config{Kind: cell.kind, Persistent: cell.persistent},
			NICCount:    4,
			Concurrency: 48,
		})
		tbs[i] = tb
		in.engines = append(in.engines, tb.Eng)
		in.kernels = append(in.kernels, tb.K)
		in.facilities = append(in.facilities, tb.F)
	}
	in.start = func() {
		for _, tb := range tbs {
			tb.Start()
		}
	}
	in.advance = func(d sim.Time) {
		for _, tb := range tbs {
			tb.Net.RunFor(d)
		}
	}
	in.now = tbs[0].Net.Now
	in.ops = func() float64 {
		var n int64
		for _, tb := range tbs {
			n += tb.Server.Completed
		}
		return float64(n)
	}
	in.snapshot = func() *metrics.Snapshot {
		out := metrics.NewSnapshot()
		for i, tb := range tbs {
			out.Merge(tb.Metrics().Prefixed(pollCells[i].name + "."))
		}
		return out
	}
	// base is the completed count per cell when the shape window opened.
	base := make([]int64, len(tbs))
	in.outputs = func(h hash.Hash) {
		for _, tb := range tbs {
			writeInts(h, tb.Server.Completed)
		}
	}
	in.shapes = func(c *checker) {
		// Soft polling must not lose throughput to interrupts
		// (TestTable8PollingImproves: speedup >= 0.99 at every quota).
		for i := 0; i < len(tbs); i += 2 {
			checkPollSpeedup(c, pollCells[i+1].name,
				tbs[i].Server.Completed-base[i], tbs[i+1].Server.Completed-base[i+1])
		}
		names := make([]string, len(pollCells))
		for i, cell := range pollCells {
			names[i] = cell.name
		}
		checkDelayBound(c, names, in.facilities)
	}
	// The throughput shape is judged over the timed phase only.
	in.markWindow = func() {
		for i, tb := range tbs {
			base[i] = tb.Server.Completed
		}
	}
	return in
}

// fleet-1024 exists because it is the only workload with many hosts: one
// saturated Flash server and 1024 client kernels on one switched LAN, run
// on a 2-shard group, so it alone exercises shard rounds and barriers, a
// deep engine queue, 1025 small timer wheels, switch forwarding, and
// host-construction cost.
var fleet1024 = &workload{
	name: "fleet-1024",
	params: map[string]any{
		"clients": fleetClients, "requests_per_client": 4, "server": "Flash",
		"shards": fleetShards, "workers": fleetWorkers, "probe_T_ticks": fleetProbeT, "loop": "closed",
	},
	opUnit:     "simulated host-millisecond",
	slice:      5 * sim.Millisecond,
	warmup:     150 * sim.Millisecond,
	checkpoint: 200,
	assemble:   assembleFleet,
}

const (
	fleetClients = 1024
	fleetShards  = 2
	// fleetWorkers is 1: the group still runs every round and barrier, but
	// serially. With 2 workers on a 2-CPU machine shared with other load,
	// one descheduled worker stalls every barrier, and run-to-run spreads
	// reached 0.4-1.5 of the median.
	fleetWorkers = 1
	// fleetProbeT is the probe soft event's requested latency in
	// measurement ticks (100 µs), as in the fleet-scale experiment.
	fleetProbeT = 100
)

func assembleFleet(seed uint64) *instance {
	g := sim.NewShardGroup(fleetShards, seed)
	g.Workers = fleetWorkers
	t := topology.NewSharded(g, seed)

	server := t.AddHost(host.Config{Name: "server", Kernel: kernel.Options{IdleLoop: true}})
	sw := t.AddSwitch("lan")
	t.Join(sw, server, nic.Config{Name: "eth0"}, topology.WireSpec{})
	srv := httpserv.NewServerMulti(server.K, server.F, server.NICs, httpserv.Config{Kind: httpserv.Flash})
	srv.Addr = t.Addr("server")
	for i := 0; i < fleetClients; i++ {
		name := fmt.Sprintf("client%04d", i)
		// Idle-halting client kernels see almost no trigger states, the
		// hard case for the delay bound.
		ch := t.AddHost(host.Config{Name: name, Kernel: kernel.Options{}})
		port := t.Join(sw, ch, nic.Config{Name: "eth0"}, topology.WireSpec{})
		httpserv.NewClientHost(ch, port.NIC, httpserv.ClientHostConfig{
			Concurrency: 4,
			FlowBase:    (i + 1) * 1_000_000,
			Segments:    srv.Segments(),
			Addr:        t.Addr(name),
			ServerAddr:  t.Addr("server"),
			// Staggered so the clients do not all open connections in the
			// same microsecond.
			StartDelay: sim.Time(i) * 100 * sim.Microsecond,
		})
	}
	names := make([]string, 0, fleetClients+1)
	in := &instance{
		hosts:    fleetClients + 1,
		group:    g,
		advance:  t.RunFor,
		now:      t.Now,
		snapshot: t.Snapshot,
	}
	for i := 0; i < g.N(); i++ {
		in.engines = append(in.engines, g.Engine(i))
	}
	for _, h := range t.Hosts() {
		names = append(names, h.Name)
		in.kernels = append(in.kernels, h.K)
		in.facilities = append(in.facilities, h.F)
		fleetProbe(h)
	}
	in.start = func() {
		t.Start()
		srv.Start()
	}
	in.ops = func() float64 { return float64(in.hosts) * t.Now().Millis() }
	in.outputs = func(h hash.Hash) {
		writeInts(h, srv.Completed, int64(t.Now()))
	}
	in.shapes = func(c *checker) {
		c.check("fleet.server_completed", srv.Completed > 0, fmt.Sprintf("%d responses", srv.Completed))
		c.check("fleet.switch_misses", sw.Misses() == 0, fmt.Sprintf("%d misses", sw.Misses()))
		checkDelayBound(c, names, in.facilities)
	}
	return in
}

// fleetProbe keeps one soft event outstanding on h, re-armed at
// exponential gaps from the host's own stream, so every host's delay
// histogram is populated even when its workload schedules no soft timers.
func fleetProbe(h *host.Host) {
	eng := h.Engine()
	rng := h.Rand()
	var fire func()
	handler := func(now sim.Time) sim.Time {
		eng.After(rng.ExpTime(300*sim.Microsecond), fire)
		return 0
	}
	fire = func() { h.F.ScheduleSoftEventFree(fleetProbeT, handler) }
	eng.After(rng.ExpTime(300*sim.Microsecond), fire)
}

// checkPollSpeedup checks that soft polling completed at least 0.99 times
// the responses interrupts did over the same window
// (TestTable8PollingImproves).
func checkPollSpeedup(c *checker, name string, intr, poll int64) {
	c.check(name+".speedup", intr > 0 && float64(poll) >= 0.99*float64(intr),
		fmt.Sprintf("poll %d vs interrupt %d responses", poll, intr))
}

// checkDelayBound asserts the §3 bound on every host's facility: no soft
// event fired later than one hardclock period plus one tick beyond its
// requested latency (TestFleetHierDelayBoundPerHost).
func checkDelayBound(c *checker, names []string, fs []*core.Facility) {
	for i, f := range fs {
		checkDelay(c, names[i], f.MaxDelayUS())
	}
}

func checkDelay(c *checker, name string, worstUS int64) {
	c.check(name+".delay_bound", worstUS <= hardclockPeriodUS+1,
		fmt.Sprintf("worst delay %d us, bound %d us", worstUS, hardclockPeriodUS+1))
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
