package main

import (
	"time"

	"github.com/activedb/ecaagent/internal/agent"
)

// measured is the raw material of one round, reduced to figures before
// the next round starts.
type measured struct {
	setup   time.Duration
	clients []*clientRun
	elapsed time.Duration // measured window
	ops     int           // ops in the measured window
	cpu     time.Duration // process CPU time in the measured window
	rt      runtimeDelta
	heap    uint64 // live heap the deployment added
	stats   agent.Stats
	applied uint64
	shadow  int // shadow-table rows at the end
}

// headlineKey names the workload's headline latency: the reaction on rule
// workloads, the statement round trip on oltp_passthrough.
func headlineKey(w *workload) string {
	if len(w.rules(0)) == 0 {
		return "stmt_p50_us"
	}
	return "reaction_p50_us"
}

func (m *measured) pool(f func(c *clientRun) []float64) []float64 {
	var out []float64
	for _, c := range m.clients {
		out = append(out, f(c)...)
	}
	return out
}

func pct(xs []float64, p float64) metric {
	return metric{Value: percentile(xs, p), Unit: "us", samples: len(xs)}
}

// runtimeNames are the Go-runtime figures; a traced run takes them from
// its untraced rounds.
var runtimeNames = []string{"runtime.gc_cycles_per_kop", "runtime.gc_pause_p99_us", "runtime.alloc_bytes_per_op"}

// endToEnd returns the round's end-to-end figures, its stationarity drift
// and its Go-runtime figures.
func (m *measured) endToEnd(w *workload) map[string]metric {
	stmt := m.pool(func(c *clientRun) []float64 { return c.stmt })
	react := m.pool(func(c *clientRun) []float64 { return c.reaction })
	// Drift of the headline latency, per client, in op order.
	var drifts []float64
	for _, c := range m.clients {
		h := c.reaction
		if headlineKey(w) == "stmt_p50_us" {
			h = c.stmt
		}
		drifts = append(drifts, drift(h))
	}
	ops := float64(max(m.ops, 1))
	return map[string]metric{
		"setup_s":                    {Value: m.setup.Seconds(), Unit: "s", samples: 1},
		"stmt_p50_us":                pct(stmt, 0.50),
		"stmt_p99_us":                pct(stmt, 0.99),
		"reaction_p50_us":            pct(react, 0.50),
		"reaction_p99_us":            pct(react, 0.99),
		"throughput_ops_s":           {Value: float64(m.ops) / m.elapsed.Seconds(), Unit: "1/s", samples: m.ops},
		"cpu_us_per_op":              {Value: us(m.cpu) / ops, Unit: "us", samples: m.ops},
		"heap_mb":                    {Value: float64(m.heap) / (1 << 20), Unit: "MB", samples: 1},
		"drift.q4_over_q1":           {Value: median(drifts), Unit: "ratio"},
		"runtime.gc_cycles_per_kop":  {Value: float64(m.rt.gcCycles) / ops * 1000, Unit: "count"},
		"runtime.gc_pause_p99_us":    {Value: percentile(m.rt.pauses, 0.99), Unit: "us", samples: len(m.rt.pauses)},
		"runtime.alloc_bytes_per_op": {Value: float64(m.rt.allocBytes) / ops, Unit: "bytes"},
	}
}

// perLayerNames are the figures a traced round adds.
var perLayerNames = []string{
	"gateway.self_us.p50", "gateway.self_us.p99", "gateway.batches_per_op",
	"engine.exec_us.p50", "engine.exec_us.p99", "engine.ingress_us.p50",
	"engine.notify_send_us.p50", "engine.notifies_per_op",
	"detect.lag_us.p50", "detect.lag_us.p99",
	"notify.delivered_ratio", "notify.gaps", "notify.duplicates",
	"wal.append_us.p50", "wal.sync_us.p50", "wal.sync_us.p99", "wal.syncs_per_occ", "wal.bytes_per_occ",
	"ship.frame_us.p50", "ship.frame_us.p99", "ship.barrier_us.p50", "ship.barrier_us.p99",
	"ship.frames_per_occ", "ship.bytes_per_occ", "ship.applied",
	"action.wait_us.p50", "action.wait_us.p99", "action.exec_us.p50", "action.exec_us.p99",
	"action.report_us.p50", "action.retries", "action.dead_letters",
	"context.shadow_rows_end",
	"trace.coverage", "trace.unpaired",
}

// perLayer adds a traced round's per-layer figures to figs. allOps counts
// every op of the round, warm-up included, as the probe's counts do.
func (m *measured) perLayer(w *workload, p *probe, allOps int, figs map[string]metric) {
	put := func(name string, v float64, unit string) { figs[name] = metric{Value: v, Unit: unit} }
	perOp := func(n int64) float64 { return float64(n) / float64(max(allOps, 1)) }
	occ := float64(m.stats.NotificationsDelivered)
	perOcc := func(n int64) float64 {
		if occ == 0 {
			return 0
		}
		return float64(n) / occ
	}
	var sessionExecs int64
	for _, c := range m.clients {
		sessionExecs += c.sessionExecs
	}
	stage := func(name string) []float64 { return m.pool(func(c *clientRun) []float64 { return c.stages[name] }) }

	p.mu.Lock()
	defer p.mu.Unlock()
	var lag []float64
	for k, det := range p.detected {
		if sent, ok := p.sent[k]; ok {
			lag = append(lag, us(det.Sub(sent)))
		}
	}

	// agent/gateway
	gw := m.pool(func(c *clientRun) []float64 { return c.gwSelf })
	figs["gateway.self_us.p50"] = pct(gw, 0.50)
	figs["gateway.self_us.p99"] = pct(gw, 0.99)
	put("gateway.batches_per_op", float64(sessionExecs)/float64(max(m.ops, 1)), "count")
	// server/engine/storage
	eng := m.pool(func(c *clientRun) []float64 { return c.engExec })
	figs["engine.exec_us.p50"] = pct(eng, 0.50)
	figs["engine.exec_us.p99"] = pct(eng, 0.99)
	figs["engine.ingress_us.p50"] = pct(stage("ingress"), 0.50)
	figs["engine.notify_send_us.p50"] = pct(p.notifyUs, 0.50)
	put("engine.notifies_per_op", perOp(int64(len(p.notifyUs))), "count")
	// agent/notifier + ingest + led
	figs["detect.lag_us.p50"] = pct(lag, 0.50)
	figs["detect.lag_us.p99"] = pct(lag, 0.99)
	ratio := 0.0
	if m.stats.NotificationsReceived > 0 {
		ratio = float64(m.stats.NotificationsDelivered) / float64(m.stats.NotificationsReceived)
	}
	put("notify.delivered_ratio", ratio, "ratio")
	put("notify.gaps", float64(m.stats.GapsDetected), "count")
	put("notify.duplicates", float64(m.stats.NotificationsDuplicate), "count")
	// agent/durable (WAL)
	figs["wal.append_us.p50"] = pct(p.walAppend, 0.50)
	figs["wal.sync_us.p50"] = pct(p.walSync, 0.50)
	figs["wal.sync_us.p99"] = pct(p.walSync, 0.99)
	put("wal.syncs_per_occ", perOcc(p.walSyncs), "count")
	put("wal.bytes_per_occ", perOcc(p.walBytes), "bytes")
	// cluster (ship)
	figs["ship.frame_us.p50"] = pct(p.shipFrame, 0.50)
	figs["ship.frame_us.p99"] = pct(p.shipFrame, 0.99)
	figs["ship.barrier_us.p50"] = pct(p.barrier, 0.50)
	figs["ship.barrier_us.p99"] = pct(p.barrier, 0.99)
	put("ship.frames_per_occ", perOcc(p.frames), "count")
	put("ship.bytes_per_occ", perOcc(p.frameB), "bytes")
	put("ship.applied", float64(m.applied), "count")
	// agent/action
	figs["action.wait_us.p50"] = pct(stage("wait"), 0.50)
	figs["action.wait_us.p99"] = pct(stage("wait"), 0.99)
	figs["action.exec_us.p50"] = pct(stage("exec"), 0.50)
	figs["action.exec_us.p99"] = pct(stage("exec"), 0.99)
	figs["action.report_us.p50"] = pct(stage("report"), 0.50)
	put("action.retries", float64(m.stats.UpstreamRetries), "count")
	put("action.dead_letters", float64(m.stats.ActionsDeadLettered), "count")
	put("context.shadow_rows_end", float64(m.shadow), "count")
	// trace: how much of the headline median the blocking-path stages
	// explain. The stages telescope per op; the sum of their medians falls
	// short of the median of their sum by the skew of each stage.
	var covered float64
	if headlineKey(w) == "stmt_p50_us" {
		covered = percentile(gw, 0.5) + percentile(eng, 0.5)
	} else {
		for _, s := range []string{"ingress", "detect", "wait", "exec", "report"} {
			covered += percentile(stage(s), 0.5)
		}
	}
	if base := figs[headlineKey(w)].Value; base > 0 {
		put("trace.coverage", covered/base, "ratio")
	} else {
		put("trace.coverage", 0, "ratio")
	}
	put("trace.unpaired", float64(p.unpaired), "count")
}
