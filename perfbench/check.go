package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// checker counts output checks and remembers the failures.
type checker struct {
	made, failed int
	failures     []string
}

func (c *checker) check(name string, ok bool, detail string) {
	c.made++
	if !ok {
		c.failed++
		c.failures = append(c.failures, name+": "+detail)
	}
}

// near checks that got is within tol (a share of want) of want.
func (c *checker) near(name string, got, want, tol float64) {
	c.check(name, math.Abs(got-want) <= tol*want,
		fmt.Sprintf("got %.4g, want %.4g ± %.0f%%", got, want, 100*tol))
}

// digest hashes an instance's simulated outputs only: its op counts and
// per-flow results, every facility's Stats, and the merged telemetry
// snapshot. Wall times, shard-sync telemetry and anything that depends on
// GOMAXPROCS stay out, so a seed's digest is the same on every run.
func digest(in *instance) string {
	h := sha256.New()
	in.outputs(h)
	for _, f := range in.facilities {
		s := f.Stats()
		writeInts(h, s.Checks, s.Scheduled, s.Fired, s.Canceled, int64(s.CheckOverhead), f.MaxDelayUS())
	}
	if err := in.snapshot().WriteJSON(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSeed is the default seed. golden.json records its digests and
// those of the seeds after it, up to goldenSeeds.
const (
	goldenSeed  = 1
	goldenSeeds = 20
)

// goldens maps GOARCH, then workload name, then seed, to the digest the
// run must produce. Floating-point contraction differs between
// architectures, so each one records its own.
type goldens map[string]map[string]map[string]string

func parseGoldens(b []byte) (goldens, error) {
	var g goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parse golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares the digest with the recorded one. It reports
// whether a golden exists for this architecture, workload and seed; other
// seeds and unrecorded architectures have nothing to compare with.
func checkGolden(c *checker, g goldens, arch, workload string, seed uint64, got string) bool {
	want, ok := g[arch][workload][fmt.Sprint(seed)]
	if !ok {
		return false
	}
	c.check("digest.golden", got == want, fmt.Sprintf("digest %s, golden %s (%s)", got, want, arch))
	return true
}

// checkRepeat compares the digest with the one an earlier run of the same
// binary and seed left under dir, traced or not, and records it when there
// is none. The key includes a hash of the executable, so a rebuilt program
// never compares against another program's digest.
func checkRepeat(c *checker, dir, workload string, seed uint64, got string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("find executable: %w", err)
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("read executable: %w", err)
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.sha256", workload, seed, runtime.GOARCH, hex.EncodeToString(sum[:8])))
	if prev, err := os.ReadFile(path); err == nil {
		c.check("digest.repeat", string(prev) == got, fmt.Sprintf("digest %s, earlier run %s", got, prev))
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(got), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
