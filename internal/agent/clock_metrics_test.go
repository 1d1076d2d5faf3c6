package agent

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
)

// These tests pin the Clock seam the nowallclock analyzer enforces: with
// a ManualClock every latency and age the agent reports is exact, not
// approximately-zero. A raw time.Now() sneaking back into any of these
// paths turns the equalities below into flaky near-misses — and trips the
// analyzer before it gets that far.

var clockBase = time.Date(2024, 7, 1, 12, 0, 0, 0, time.UTC)

// startManualAgent boots an agent whose every timestamp flows from mc.
func startManualAgent(t *testing.T, r *durableRig, mc *led.ManualClock, reg *obs.Registry) *Agent {
	t.Helper()
	a := r.start(func(cfg *Config) {
		cfg.Clock = mc
		cfg.Metrics = reg
	})
	t.Cleanup(func() { a.Close() })
	return a
}

// TestCheckpointAgeExactUnderManualClock: the checkpoint-age gauge is
// computed through the seam, so advancing the manual clock 42s after a
// checkpoint reads back exactly 42.
func TestCheckpointAgeExactUnderManualClock(t *testing.T) {
	r := newDurableRig(t)
	mc := led.NewManualClock(clockBase)
	reg := obs.NewRegistry()
	a := startManualAgent(t, r, mc, reg)
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mc.Advance(42 * time.Second)
	got, ok := promValue(reg, "eca_recovery_checkpoint_age_seconds")
	if !ok {
		t.Fatal("eca_recovery_checkpoint_age_seconds not rendered")
	}
	if got != 42 {
		t.Fatalf("checkpoint age = %v, want exactly 42", got)
	}
}

// TestResyncLatencyExactUnderManualClock: a resync sweep's latency
// histogram observes clock deltas, so with time frozen the sum is exactly
// zero while the count still advances.
func TestResyncLatencyExactUnderManualClock(t *testing.T) {
	r := newDurableRig(t)
	mc := led.NewManualClock(clockBase)
	a := startManualAgent(t, r, mc, obs.NewRegistry())
	before := a.met.resyncSec.Count() // startup recovery may have swept already
	if err := a.Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if c := a.met.resyncSec.Count(); c != before+1 {
		t.Fatalf("resync histogram count = %d, want %d", c, before+1)
	}
	if s := a.met.resyncSec.Sum(); s != 0 {
		t.Fatalf("resync histogram sum = %v, want exactly 0 (wall clock leaked into the measurement)", s)
	}
}

// TestActionLatencyExactUnderManualClock: rule-action latency spans the
// lane and connection wait plus execution, both measured through the seam.
func TestActionLatencyExactUnderManualClock(t *testing.T) {
	r := newDurableRig(t)
	mc := led.NewManualClock(clockBase)
	a := startManualAgent(t, r, mc, obs.NewRegistry())
	cs := r.session(a)
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'hit'"); err != nil {
		t.Fatal(err)
	}
	drv := r.eng.NewSession("sharma")
	if err := drv.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.ExecBatch("insert into stock values ('IBM', 101)"); err != nil {
		t.Fatal(err)
	}
	<-a.ActionDone
	a.WaitActions()
	if c := a.met.actionSec.Count(); c != 1 {
		t.Fatalf("action histogram count = %d, want 1", c)
	}
	if s := a.met.actionSec.Sum(); s != 0 {
		t.Fatalf("action histogram sum = %v, want exactly 0", s)
	}
}

// promValue extracts one sample from the registry's Prometheus rendering
// (the only way to read a GaugeFunc back).
func promValue(reg *obs.Registry, name string) (float64, bool) {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}
