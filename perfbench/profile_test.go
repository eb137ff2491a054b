package main

import "testing"

// TestAttribute checks how CPU sample stacks, leaf first, are charged to
// layers; in particular that the allocation-profile bookkeeping the traced
// run turns on is charged to the benchmark, not to the runtime.
func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.(*unwinder).next", "runtime.callers", "runtime.mProf_Malloc", "runtime.profilealloc",
			"runtime.mallocgc", "softtimers/internal/httpserv.(*Server).handle"}, "bench"},
		{[]string{"runtime.stkbucket", "runtime.mProf_Malloc"}, "bench"},
		{[]string{"runtime.mallocgc", "softtimers/internal/httpserv.(*Server).handle"}, "runtime"},
		{[]string{"runtime.mapaccess1", "softtimers/internal/stats.(*Hist).Add", "softtimers/internal/kernel.(*Kernel).dispatch"}, "kernel"},
		{[]string{"softtimers/internal/sim.(*ShardGroup).round"}, "sim.shard"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData"}, "bench"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
