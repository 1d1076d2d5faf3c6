// Command perfbench is the repository benchmark. It stands up the paper's
// full deployment in one process — SQL server, ECA agent over TCP, the
// agent's gateway — drives one closed-loop workload from two clients,
// checks every reply and every rule action against an oracle, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload rule_fire --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn. BENCHMARK.json at the
// repository root lists the workloads and metrics; NOTES.md beside this
// file records why each workload exists and what the traces showed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// nClients is the closed loop's client count: one per core on the
// two-core hosts the benchmark targets.
const nClients = 2

// opTimeout is how long an op waits for the rule actions it caused; a
// miss counts as a failure. The oracle test lowers it so that the misses
// it provokes do not wait long.
var opTimeout = 5 * time.Second

type config struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	faults  faultPlan
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run, or all")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measurement time per workload")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := workloadByName(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	final := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range ws {
		cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
		res, extra, notes, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stdout, w.name, res, extra, notes)
		for _, n := range notes {
			if strings.HasPrefix(n, driftFlag) {
				fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, n)
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printTable prints every metric by name with its unit and sample count;
// extra holds the figures reported but not gated.
func printTable(w io.Writer, name string, res result, extra map[string]metric, notes []string) {
	fmt.Fprintf(w, "workload %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for i, ms := range []map[string]metric{res.Metrics, extra} {
		if i == 1 && len(ms) > 0 {
			fmt.Fprintln(w, "  reported, not gated:")
		}
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := ms[k]
			n := ""
			if m.samples > 0 {
				n = fmt.Sprintf("n=%d", m.samples)
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", k, m.Value, m.Unit, n)
		}
	}
	for _, s := range notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
}

// round is what one fresh deployment left behind: set up, warm up,
// measure, verify, then reduce to this round's figures. Raw samples are
// dropped before the next round starts, so what earlier rounds measured
// does not sit in the heap and change how often later rounds collect
// garbage.
type round struct {
	traced      bool
	ops, failed int // all ops, warm-up included
	fails       []string
	figs        map[string]metric
}

func runRound(cfg config, idx int, traced bool) (*round, error) {
	var p *probe
	if traced || cfg.faults != (faultPlan{}) {
		p = newProbe(traced, cfg.faults)
	}
	baseHeap := liveHeapBytes()
	t0 := time.Now()
	d, err := deploy(cfg.w, p, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	m := measured{setup: time.Since(t0)}

	for i := 0; i < nClients; i++ {
		c := &clientRun{
			id:     i,
			conn:   d.clients[i],
			rng:    rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(idx)*7919 + int64(i))),
			inbox:  d.disp.inbox[i],
			stages: make(map[string][]float64),
		}
		if traced {
			c.probe = p
			c.sess = p.session(i)
		}
		m.clients = append(m.clients, c)
	}
	var warm, done sync.WaitGroup
	goCh := make(chan struct{})
	for _, c := range m.clients {
		warm.Add(1)
		done.Add(1)
		go func(c *clientRun) {
			defer done.Done()
			for i := 0; i < cfg.w.warmup; i++ {
				c.step(cfg.w)
			}
			warm.Done()
			<-goCh
			c.measuring = true
			for i := 0; i < cfg.w.ops; i++ {
				c.step(cfg.w)
			}
			c.measuring = false
		}(c)
	}
	warm.Wait()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	close(goCh)
	done.Wait()
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.rt = rt0.to(readRuntime())

	r := &round{traced: traced}
	for _, c := range m.clients {
		r.ops += c.ops
		m.ops += cfg.w.ops
		r.failed += c.failed
		r.fails = append(r.fails, c.errs...)
	}
	checks := cfg.w.verify(d, m.clients)
	r.failed += len(checks)
	r.fails = append(r.fails, checks...)
	m.stats = d.agent.Stats()
	if d.applier != nil {
		m.applied = d.applier.Applied()
	}
	m.shadow = shadowRows(d, cfg.w)
	live := liveHeapBytes()
	m.heap = live - min(baseHeap, live)
	r.figs = m.endToEnd(cfg.w)
	if traced {
		m.perLayer(cfg.w, p, r.ops, r.figs)
	}
	return r, nil
}

func (c *clientRun) step(w *workload) {
	c.ops++
	if err := w.op(c); err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("client %d op %d: %v", c.id, c.ops, err))
		}
	}
}

// shadowRows counts the rows in the shadow tables the workload's native
// triggers append to: the history a parameter-context join scans.
func shadowRows(d *deployment, w *workload) int {
	total := 0
	for c := 0; c < nClients; c++ {
		for _, t := range w.shadowTables(c) {
			rs, err := d.clients[0].Query("select count(*) from " + t)
			if err != nil || len(rs.Rows) != 1 {
				continue
			}
			n, _ := rs.Rows[0][0].AsInt()
			total += int(n)
		}
	}
	return total
}

// gatedE2E are the end-to-end metrics BENCHMARK.json bounds. On a shared
// two-core host whose hypervisor steals 1-40% of the CPU, tail latencies
// and wall-clock throughput swing with the neighbours' load far beyond
// any usable bound, so they are reported (ungatedE2E, and under e2e. on
// a traced run) but not gated; fail_ratio is 0 on correct code and gates
// through the result's correct and failed fields instead.
var (
	gatedE2E   = []string{"setup_s", "stmt_p50_us", "reaction_p50_us", "cpu_us_per_op", "heap_mb"}
	ungatedE2E = []string{"stmt_p99_us", "reaction_p99_us", "throughput_ops_s", "fail_ratio"}
)

// driftBound is how far the last quarter of a round's ops may sit above
// the first before the stationarity check flags the workload. The flag is
// advisory: it is printed, to standard error too, but does not fail the
// run. A workload whose cost grows with history by design
// (workload.growsWithHistory) is exempt.
const (
	driftBound = 0.25
	driftFlag  = "STATIONARITY FLAG"
)

// runWorkload runs rounds until the measurement time is spent (at least
// minRounds) and reports each figure as the median over rounds of its
// per-round value, so a burst of interference that spoils one round does
// not move the result; sample counts are totals over the rounds. On a
// traced run the rounds alternate untraced and traced: per-layer figures
// come from the traced rounds, end-to-end and Go-runtime figures from the
// untraced ones, and trace.overhead compares the two.
func runWorkload(cfg config) (result, map[string]metric, []string, error) {
	const minRounds = 3
	var plain, traced []*round
	res := result{Metrics: make(map[string]metric)}
	var notes, fails []string
	begin := time.Now()
	for i := 0; i < minRounds || time.Since(begin) < cfg.seconds; i++ {
		r, err := runRound(cfg, i, cfg.trace && i%2 == 1)
		if err != nil {
			return result{}, nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		fails = append(fails, r.fails...)
		h := r.figs[headlineKey(cfg.w)]
		notes = append(notes, fmt.Sprintf("round %d traced=%v: setup %.1fms, %.0f ops/s, headline p50 %.0fus, drift %+.2f",
			i, r.traced, 1000*r.figs["setup_s"].Value, r.figs["throughput_ops_s"].Value, h.Value, r.figs["drift.q4_over_q1"].Value))
	}
	res.Correct = res.Failed == 0
	if len(fails) > 10 {
		fails = append(fails[:10], fmt.Sprintf("... %d more failures", len(fails)-10))
	}
	notes = append(notes, fails...)

	agg := func(rs []*round, name string) metric {
		var out metric
		var xs []float64
		for _, r := range rs {
			if m, ok := r.figs[name]; ok {
				xs = append(xs, m.Value)
				out.Unit = m.Unit
				out.samples += m.samples
			}
		}
		out.Value = median(xs)
		return out
	}
	drift := agg(plain, "drift.q4_over_q1")
	switch {
	case cfg.w.growsWithHistory:
		notes = append(notes, fmt.Sprintf("stationarity: drift %+.2f, expected: cost grows with shadow history", drift.Value))
	case drift.Value > driftBound:
		notes = append(notes, fmt.Sprintf("%s: last-quarter median is %.0f%% above the first quarter's (bound %.0f%%)",
			driftFlag, 100*drift.Value, 100*driftBound))
	}
	fail := metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio", samples: res.Attempted}
	extra := make(map[string]metric)
	if cfg.trace {
		for _, name := range perLayerNames {
			res.Metrics[name] = agg(traced, name)
		}
		for _, name := range runtimeNames {
			res.Metrics[name] = agg(plain, name)
		}
		for _, name := range ungatedE2E {
			res.Metrics["e2e."+name] = agg(plain, name)
		}
		res.Metrics["e2e.fail_ratio"] = fail
		res.Metrics["drift.q4_over_q1"] = drift
		key := headlineKey(cfg.w)
		overhead := 0.0
		if base := agg(plain, key).Value; base > 0 {
			overhead = agg(traced, key).Value / base
		}
		res.Metrics["trace.overhead"] = metric{Value: overhead, Unit: "ratio"}
	} else {
		for _, name := range gatedE2E {
			res.Metrics[name] = agg(plain, name)
		}
		for _, name := range ungatedE2E {
			extra[name] = agg(plain, name)
		}
		extra["fail_ratio"] = fail
		extra["drift.q4_over_q1"] = drift
	}
	return res, extra, notes, nil
}
