package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// small returns a copy of a workload cut down to a few ops per client.
func small(w *workload) *workload {
	c := *w
	c.warmup, c.ops = 3, 30
	return &c
}

// runSmall runs the minimum of rounds, so a traced run has both an
// untraced and a traced round.
func runSmall(t *testing.T, w *workload, faults faultPlan, trace bool) (result, map[string]metric) {
	t.Helper()
	res, extra, _ := runRounds(t, small(w), faults, trace)
	return res, extra
}

func runRounds(t *testing.T, w *workload, faults faultPlan, trace bool) (result, map[string]metric, []string) {
	t.Helper()
	defer func(d time.Duration) { opTimeout = d }(opTimeout)
	opTimeout = time.Second
	if faults != (faultPlan{}) {
		opTimeout = 300 * time.Millisecond // expected misses need not wait long
	}
	cfg := config{w: w, seed: 7, trace: trace, faults: faults}
	res, extra, notes, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, n := range notes {
		t.Logf("%s: %s", w.name, n)
	}
	return res, extra, notes
}

// TestCleanRunsPass: on unmodified code every workload's oracle passes.
func TestCleanRunsPass(t *testing.T) {
	for _, w := range workloads {
		res, extra := runSmall(t, w, faultPlan{}, false)
		if !res.Correct || res.Failed != 0 || extra["fail_ratio"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d fail_ratio=%v", w.name, res.Correct, res.Failed, extra["fail_ratio"].Value)
		}
	}
}

// TestOracleCatchesFaults shows the oracle is live: the same code with
// failing rule actions, or with one lost notification, must report a
// non-zero fail_ratio.
func TestOracleCatchesFaults(t *testing.T) {
	cases := []struct {
		name   string
		w      *workload
		faults faultPlan
	}{
		{"failed actions/rule_fire", ruleFire, faultPlan{failActionEvery: 7}},
		{"failed actions/context_join", contextJoin, faultPlan{failActionEvery: 7}},
		{"failed actions/durable_sync", durableSync, faultPlan{failActionEvery: 7}},
		{"dropped notification/rule_fire", ruleFire, faultPlan{dropNotify: 10}},
		{"dropped notification/context_join", contextJoin, faultPlan{dropNotify: 10}},
	}
	for _, tc := range cases {
		res, extra := runSmall(t, tc.w, tc.faults, false)
		if res.Correct || res.Failed == 0 || extra["fail_ratio"].Value <= 0 {
			t.Errorf("%s: correct=%v failed=%d fail_ratio=%v; want the fault detected",
				tc.name, res.Correct, res.Failed, extra["fail_ratio"].Value)
		}
	}
}

// TestStationarityFlagsGrowth shows the stationarity check is live:
// context_join's growth with shadow history, which its workload declares,
// is flagged once the declaration is taken away.
func TestStationarityFlagsGrowth(t *testing.T) {
	w := *contextJoin
	w.warmup, w.ops, w.growsWithHistory = 3, 150, false
	_, extra, notes := runRounds(t, &w, faultPlan{}, false)
	flagged := false
	for _, n := range notes {
		flagged = flagged || strings.HasPrefix(n, driftFlag)
	}
	if !flagged {
		t.Errorf("drift %+.2f over %d cycles not flagged", extra["drift.q4_over_q1"].Value, w.ops)
	}
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run prints exactly
// the end_to_end metrics BENCHMARK.json lists, and a traced run exactly
// its per_layer metrics, for every workload it lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(wl string, got map[string]metric, want []struct{ Name, Unit string }) {
		var names []string
		for _, m := range want {
			g, ok := got[m.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", wl, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", wl, m.Name, g.Unit, m.Unit)
			}
			names = append(names, m.Name)
		}
		if len(got) != len(want) {
			var extra []string
			for k := range got {
				extra = append(extra, k)
			}
			sort.Strings(extra)
			t.Errorf("%s: printed %d metrics %v, BENCHMARK.json lists %d %v", wl, len(got), extra, len(want), names)
		}
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json lists unknown workload %s", sw.Name)
		}
		res, _ := runSmall(t, w, faultPlan{}, false)
		check(w.name, res.Metrics, spec.EndToEnd)
		for _, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: an end-to-end metric reads 0: %+v", w.name, m)
			}
		}
		res, _ = runSmall(t, w, faultPlan{}, true)
		check(w.name+" traced", res.Metrics, spec.PerLayer)
	}
}
