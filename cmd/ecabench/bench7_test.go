package main

import (
	"strings"
	"testing"
)

func baselineGated() map[string]gatedMetric {
	return map[string]gatedMetric{
		"signal_warm":         {NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: 64},
		"decode_text_batch16": {NsPerOp: 500, AllocsPerOp: 0, BytesPerOp: 0},
	}
}

// A synthetic 15% ns/op regression must fail a 10% gate — the acceptance
// scenario of ISSUE 7.
func TestGateFailsOnFifteenPercentRegression(t *testing.T) {
	fresh := baselineGated()
	fresh["signal_warm"] = gatedMetric{NsPerOp: 1150, AllocsPerOp: 1, BytesPerOp: 64}
	violations := compareGate(baselineGated(), fresh, 0.10, 1.0)
	if len(violations) != 1 || !strings.Contains(violations[0], "signal_warm") {
		t.Fatalf("want one signal_warm ns/op violation, got %v", violations)
	}
	// The same regression passes CI's looser 25% threshold.
	if v := compareGate(baselineGated(), fresh, 0.25, 1.0); len(v) != 0 {
		t.Fatalf("15%% slowdown should pass a 25%% gate, got %v", v)
	}
}

// Any allocs/op increase fails regardless of threshold.
func TestGateFailsOnAnyAllocIncrease(t *testing.T) {
	fresh := baselineGated()
	fresh["decode_text_batch16"] = gatedMetric{NsPerOp: 400, AllocsPerOp: 1, BytesPerOp: 16}
	violations := compareGate(baselineGated(), fresh, 1.0, 1.0)
	if len(violations) != 1 || !strings.Contains(violations[0], "allocs/op") {
		t.Fatalf("want one allocs/op violation, got %v", violations)
	}
}

// Noise within the threshold, faster runs, and alloc decreases all pass.
func TestGatePassesWithinBudget(t *testing.T) {
	fresh := map[string]gatedMetric{
		"signal_warm":         {NsPerOp: 1090, AllocsPerOp: 1, BytesPerOp: 64},
		"decode_text_batch16": {NsPerOp: 300, AllocsPerOp: 0, BytesPerOp: 0},
	}
	if v := compareGate(baselineGated(), fresh, 0.10, 1.0); len(v) != 0 {
		t.Fatalf("within-budget run failed the gate: %v", v)
	}
}

// Host-speed calibration cancels systematic drift: a uniformly 2x-slower
// fresh run passes when the probe also measured 2x slower (scale=2.0), but
// a real regression on top of the drift still fails.
func TestGateCalibrationCancelsHostDrift(t *testing.T) {
	fresh := map[string]gatedMetric{
		"signal_warm":         {NsPerOp: 2000, AllocsPerOp: 1, BytesPerOp: 64},
		"decode_text_batch16": {NsPerOp: 1000, AllocsPerOp: 0, BytesPerOp: 0},
	}
	if v := compareGate(baselineGated(), fresh, 0.10, 2.0); len(v) != 0 {
		t.Fatalf("2x drift with scale=2.0 should pass, got %v", v)
	}
	// Same drift, but signal_warm is additionally 20% slower: that is a
	// genuine regression the scaled threshold must still catch.
	fresh["signal_warm"] = gatedMetric{NsPerOp: 2400, AllocsPerOp: 1, BytesPerOp: 64}
	v := compareGate(baselineGated(), fresh, 0.10, 2.0)
	if len(v) != 1 || !strings.Contains(v[0], "signal_warm") {
		t.Fatalf("want one signal_warm violation under drift, got %v", v)
	}
}

// A fast-phase probe (scale < 1) must not tighten the gate below the raw
// threshold: an unchanged fresh run passes even when the probe says the
// host is 2x faster.
func TestGateScaleClampedAtOne(t *testing.T) {
	if v := compareGate(baselineGated(), baselineGated(), 0.10, 0.5); len(v) != 0 {
		t.Fatalf("unchanged run failed under a fast probe: %v", v)
	}
	// The raw threshold still applies: a 15% regression fails at scale 0.5.
	fresh := baselineGated()
	fresh["signal_warm"] = gatedMetric{NsPerOp: 1150, AllocsPerOp: 1, BytesPerOp: 64}
	v := compareGate(baselineGated(), fresh, 0.10, 0.5)
	if len(v) != 1 || !strings.Contains(v[0], "signal_warm") {
		t.Fatalf("want one signal_warm violation at clamped scale, got %v", v)
	}
}

// The ns/op violation formatter must report the true direction of
// movement and the scaled limit that was breached (ISSUE 8: a decrease
// was reported as "ns/op rose 1955.4 -> 1849.6" by the old formatter).
func TestNsViolationFormatter(t *testing.T) {
	cases := []struct {
		name             string
		base, got, limit float64
		want             []string
	}{
		{"signal_warm", 1000, 1150, 1100,
			[]string{"signal_warm:", "rose 1000.0 -> 1150.0", "scaled limit 1100.0"}},
		{"signal_warm", 1955.4, 1849.6, 1800,
			[]string{"fell 1955.4 -> 1849.6", "scaled limit 1800.0"}},
		{"signal_warm", 1000, 1000, 990,
			[]string{"held 1000.0 -> 1000.0"}},
	}
	for _, c := range cases {
		v := nsViolation(c.name, c.base, c.got, c.limit, 0.10, 1.0)
		for _, w := range c.want {
			if !strings.Contains(v, w) {
				t.Errorf("violation %q missing %q", v, w)
			}
		}
		// remeasureViolating matches by this prefix; it must survive any
		// future rewording.
		if !strings.HasPrefix(v, c.name+":") {
			t.Errorf("violation %q lost the %q prefix", v, c.name+":")
		}
	}
}

// A metric missing from the fresh run is a violation, not a silent pass.
func TestGateFailsOnMissingMetric(t *testing.T) {
	fresh := baselineGated()
	delete(fresh, "signal_warm")
	violations := compareGate(baselineGated(), fresh, 0.10, 1.0)
	if len(violations) != 1 || !strings.Contains(violations[0], "missing") {
		t.Fatalf("want one missing-metric violation, got %v", violations)
	}
}

// Every name in the gated set must resolve to a benchmark body (a typo'd
// entry would otherwise only surface as a panic mid-matrix-run).
func TestGatedBenchNamesResolve(t *testing.T) {
	for _, name := range gatedBenchNames {
		if gatedBench(name) == nil {
			t.Errorf("gatedBench(%q) has no body", name)
		}
	}
	if gatedBench("no-such-benchmark") != nil {
		t.Error("unknown name resolved to a body")
	}
}
