package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"softtimers/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden.json for this GOARCH, seeds 1.."+fmt.Sprint(goldenSeeds))

// runToCheckpoint assembles a workload and advances it exactly as a
// benchmark run does up to the digest.
func runToCheckpoint(w *workload, seed uint64) *instance {
	in := w.assemble(seed)
	in.start()
	in.advance(w.warmup)
	if in.markWindow != nil {
		in.markWindow()
	}
	for i := 0; i < w.checkpoint; i++ {
		in.advance(w.slice)
	}
	return in
}

// TestUpdateGoldens records every workload's digest for the golden seeds
// when run with -update (a few minutes):
//
//	go test -run TestUpdateGoldens -update
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil {
		g = goldens{}
	}
	arch := map[string]map[string]string{}
	for _, w := range workloadList {
		arch[w.name] = map[string]string{}
		for seed := uint64(goldenSeed); seed <= goldenSeeds; seed++ {
			arch[w.name][fmt.Sprint(seed)] = digest(runToCheckpoint(w, seed))
		}
	}
	g[runtime.GOARCH] = arch
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The default seed's digest matches the recorded golden, and a perturbed
// golden makes the check fail.
func TestGoldenDigest(t *testing.T) {
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g[runtime.GOARCH][paceDense.name][fmt.Sprint(goldenSeed)]
	if !ok {
		t.Skipf("no golden digest recorded for %s", runtime.GOARCH)
	}
	got := digest(runToCheckpoint(paceDense, goldenSeed))

	var c checker
	if !checkGolden(&c, g, runtime.GOARCH, paceDense.name, goldenSeed, got) || c.failed != 0 {
		t.Fatalf("digest %s, golden %s: %v", got, want, c.failures)
	}
	perturbed := []byte(want)
	perturbed[0] ^= 1
	g[runtime.GOARCH][paceDense.name][fmt.Sprint(goldenSeed)] = string(perturbed)
	c = checker{}
	checkGolden(&c, g, runtime.GOARCH, paceDense.name, goldenSeed, got)
	if c.failed != 1 {
		t.Fatalf("perturbed golden: %d failures, want 1", c.failed)
	}
	c = checker{}
	if checkGolden(&c, g, runtime.GOARCH, paceDense.name, goldenSeeds+1, got) || c.made != 0 {
		t.Fatal("a seed without a golden was compared with one")
	}
}

// Each shape check passes on the real outputs and fails once its input is
// perturbed past the tolerance.
func TestShapesRejectPerturbation(t *testing.T) {
	in := runToCheckpoint(paceDense, goldenSeed)
	var c checker
	in.shapes(&c)
	if c.made == 0 || c.failed != 0 {
		t.Fatalf("pace-dense shapes: %d made, failures %v", c.made, c.failures)
	}

	flow := paceFlow{target: 40 * sim.Microsecond, sent: 101, first: 0, last: 100 * 40 * sim.Microsecond}
	cases := []struct {
		name      string
		good, bad func(c *checker)
	}{
		{"pace interval",
			func(c *checker) { checkPaceFlows(c, []paceFlow{flow}) },
			func(c *checker) {
				slow := flow
				slow.last = slow.last * 106 / 100
				checkPaceFlows(c, []paceFlow{flow, slow})
			}},
		{"poll speedup",
			func(c *checker) { checkPollSpeedup(c, "cell", 1000, 990) },
			func(c *checker) { checkPollSpeedup(c, "cell", 1000, 989) }},
		{"delay bound",
			func(c *checker) { checkDelay(c, "host", hardclockPeriodUS+1) },
			func(c *checker) { checkDelay(c, "host", hardclockPeriodUS+2) }},
	}
	for _, tc := range cases {
		var good, bad checker
		tc.good(&good)
		tc.bad(&bad)
		if good.failed != 0 || bad.failed != 1 {
			t.Errorf("%s: %d failures on good input, %d on perturbed, want 0 and 1", tc.name, good.failed, bad.failed)
		}
	}
}
