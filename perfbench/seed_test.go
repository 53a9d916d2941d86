package main

import (
	"math/rand"
	"testing"
	"time"
)

// coldCounts are compile_cold's seeded input digest and the counts that
// must repeat exactly for one seed.
type coldCounts struct {
	digest     string
	planSim    float64
	spmd       int
	blocks     float64
	candidates float64
	codegen    float64
}

func measureCold(t *testing.T, seed int64) coldCounts {
	t.Helper()
	s, err := newColdSetup(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer s.svc.Close()
	var check tally
	planSim, spmd := prefixPlans(s, &check)
	if len(check.breaches) > 0 {
		t.Fatalf("seed %d: %v", seed, check.breaches)
	}
	tr, _, err := replayCold(s.prefix, true)
	if err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	return coldCounts{
		digest:     digest(closedLoop(s.prefix)),
		planSim:    planSim,
		spmd:       spmd,
		blocks:     tr.counts["partition.blocks"],
		candidates: tr.counts["selector.candidates"],
		codegen:    tr.counts["codegen.bytes"],
	}
}

// TestSeedPurity: one seed gives the same inputs and the same
// deterministic counts on every run, and another seed other inputs.
func TestSeedPurity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the deterministic prefix twice")
	}
	a, b := measureCold(t, 7), measureCold(t, 7)
	if a != b {
		t.Fatalf("seed 7 did not repeat:\n%+v\n%+v", a, b)
	}
	if a.planSim == 0 || a.spmd == 0 || a.blocks == 0 || a.candidates == 0 || a.codegen == 0 {
		t.Fatalf("a zero count makes the comparison vacuous: %+v", a)
	}
	// The replay runs the same generator the service runs.
	if int(a.codegen) != a.spmd {
		t.Errorf("replayed codegen.bytes %v != service spmd_bytes %d", a.codegen, a.spmd)
	}
	other := newColdStream(rand.New(rand.NewSource(8)), coldLadder, 0)
	var prefix []request
	for i := 0; i < coldPrefix; i++ {
		prefix = append(prefix, other.Next())
	}
	if digest(closedLoop(prefix)) == a.digest {
		t.Errorf("seeds 7 and 8 gave the same compile_cold inputs")
	}

	window := 2 * time.Second
	openLoop := map[string]func(seed int64) string{
		"execute_hot": func(seed int64) string {
			s, err := newHotSetup(seed, window, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.svc.Close()
			return s.digest
		},
		"fleet_churn": func(seed int64) string {
			f, err := newFleetSetup(runConfig{seed: seed, scratch: t.TempDir()}, window)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			return f.digest
		},
	}
	for name, build := range openLoop {
		d1, d2, d3 := build(7), build(7), build(8)
		if d1 != d2 {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, d1, d2)
		}
		if d1 == d3 {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}
