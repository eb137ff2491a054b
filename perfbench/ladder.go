package main

import (
	"math"
	"time"

	"softtimers/internal/host"
	"softtimers/internal/kernel"
	"softtimers/internal/netstack"
	"softtimers/internal/sim"
	"softtimers/internal/timerwheel"
	"softtimers/internal/topology"
)

// The unit-cost ladder times each layer's public entry point alone, at the
// size the workload showed, so per-layer counts times unit costs can be
// reconciled with the measured wall time.

// ladderBudget is how long each rung measures.
const ladderBudget = 150 * time.Millisecond

// timeLoop runs step in batches until the budget is spent and returns the
// host nanoseconds per unit step reports having done.
func timeLoop(step func() int) float64 {
	var units int
	start := time.Now()
	for time.Since(start) < ladderBudget {
		units += step()
	}
	if units == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

// nsPerEvent times Engine.After plus firing at a queue depth of depth:
// depth self-rescheduling chains with gaps spread over two decades.
func nsPerEvent(depth int, seed uint64) float64 {
	if depth < 1 {
		depth = 1
	}
	eng := sim.NewEngine(seed)
	rng := sim.NewRNG(seed)
	for i := 0; i < depth; i++ {
		gap := sim.Time(1+rng.Intn(100)) * sim.Microsecond
		var fire func()
		fire = func() { eng.After(gap, fire) }
		eng.After(gap, fire)
	}
	return timeLoop(func() int {
		before := eng.Fired
		eng.RunFor(sim.Millisecond)
		return int(eng.Fired - before)
	})
}

// nsPerDue times a hashed wheel's due path at pending timers, checked
// every step ticks (the workload's mean interval between trigger checks on
// one wheel): when a timer is due, advance and fire, re-arming each fired
// timer 40..4000 ticks ahead, log-spaced like the pace-dense targets. It returns
// host ns per fired timer, the checks that found nothing included.
func nsPerDue(pending int, step timerwheel.Tick, seed uint64) float64 {
	if pending < 1 {
		pending = 1
	}
	if step < 1 {
		step = 1
	}
	w := timerwheel.New(256)
	rng := sim.NewRNG(seed)
	for i := 0; i < pending; i++ {
		gap := timerwheel.Tick(40 * math.Pow(100, rng.Float64()))
		var h timerwheel.Handler
		h = func(now timerwheel.Tick) { w.ScheduleFree(now+gap, h) }
		w.ScheduleFree(gap, h)
	}
	var now timerwheel.Tick
	return timeLoop(func() int {
		fired := 0
		for i := 0; i < 1000; i++ {
			now += step
			if w.Due(now) {
				fired += w.Advance(now)
			}
		}
		return fired
	})
}

// nsPerTrigger times Facility.Trigger with nothing due and pending timers
// parked far ahead.
func nsPerTrigger(pending int, seed uint64) float64 {
	h := host.New(sim.NewEngine(seed), host.Config{Kernel: kernel.Options{}})
	f := h.F
	for i := 0; i < pending; i++ {
		f.ScheduleSoftEvent(uint64(1_000_000_000+i), func(sim.Time) sim.Time { return 0 })
	}
	now := sim.Time(0)
	return timeLoop(func() int {
		for i := 0; i < 1000; i++ {
			now += sim.Microsecond
			f.Trigger(kernel.SrcSyscall, now)
		}
		return 1000
	})
}

// nsPerForward times Link.Send into a Switch with fanout ports, through
// the delivery event to the port.
func nsPerForward(fanout int, seed uint64) float64 {
	if fanout < 1 {
		fanout = 1
	}
	eng := sim.NewEngine(seed)
	top := topology.New(eng)
	sw := top.AddSwitch("s0")
	arena := top.Arena(0)
	sink := netstack.EndpointFunc(func(p *netstack.Packet) { arena.Release(p) })
	for i := 0; i < fanout; i++ {
		sw.Connect(netstack.Addr(i+1), sink)
	}
	link := netstack.NewLink(eng, "l0", 1_000_000_000, sim.Microsecond, sw)
	link.SetArena(arena)
	flow := 0
	return timeLoop(func() int {
		before := sw.Forwarded()
		for i := 0; i < 64; i++ {
			p := arena.Get()
			p.Flow, p.Dst, p.Kind, p.Size = flow, netstack.Addr(flow%fanout+1), netstack.Data, 1500
			flow++
			link.Send(p)
		}
		eng.RunFor(sim.Millisecond)
		return int(sw.Forwarded() - before)
	})
}
