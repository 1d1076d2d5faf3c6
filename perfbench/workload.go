package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// workload is one closed-loop traffic mix. Each client runs its op
// function back to back; an op returns only once every reply and every
// rule action it caused has been seen.
type workload struct {
	name    string
	durable bool
	// warmup ops per client run before measuring; ops per client are
	// measured per round. Every round starts from a fresh deployment, so
	// tables and shadow history start from the same state each time.
	warmup, ops int
	// growsWithHistory marks a workload whose cost per op grows with the
	// shadow history by design; the stationarity check does not flag it.
	growsWithHistory bool
	schema           func() []string
	rules            func(c int) []string // trigger names whose actions belong to client c
	// shadowTables names the shadow tables client c's native triggers
	// append to.
	shadowTables func(c int) []string
	op           func(c *clientRun) error
	// verify runs once per round after the clients stop, returning one
	// description per failed check.
	verify func(d *deployment, cs []*clientRun) []string
}

var workloads = []*workload{oltpPassthrough, ruleFire, contextJoin, durableSync}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// oltp_passthrough: plain SQL, no rules.

const (
	hotRows  = 32   // rows each client owns in the hot table
	keySpace = 1000 // client c owns keys [c*keySpace, (c+1)*keySpace)
	tmpKey   = 500  // offset of the key an insert+delete pair uses
)

var oltpPassthrough = &workload{
	name:   "oltp_passthrough",
	warmup: 200,
	ops:    1600,
	schema: func() []string {
		var b strings.Builder
		b.WriteString("create table hot (k int, v int)\n")
		for c := 0; c < nClients; c++ {
			for i := 0; i < hotRows; i++ {
				fmt.Fprintf(&b, "insert hot values (%d, %d)\n", c*keySpace+i, i)
			}
		}
		return []string{b.String()}
	},
	rules:        func(int) []string { return nil },
	shadowTables: func(int) []string { return nil },
	op: func(c *clientRun) error {
		if c.vals == nil {
			c.vals = make([]int, hotRows)
			for i := range c.vals {
				c.vals[i] = i
			}
		}
		base := c.id * keySpace
		i := c.rng.Intn(hotRows)
		switch r := c.rng.Intn(10); {
		case r < 6: // point select
			rs, _, err := c.exec(fmt.Sprintf("select v from hot where k = %d", base+i))
			if err != nil {
				return err
			}
			return wantInt(rs, c.vals[i])
		case r < 8: // insert+delete pair: table size stays fixed
			v := c.rng.Intn(1 << 20)
			if err := c.dml(fmt.Sprintf("insert hot values (%d, %d)", base+tmpKey, v)); err != nil {
				return err
			}
			return c.dml(fmt.Sprintf("delete hot where k = %d", base+tmpKey))
		case r < 9: // update
			v := c.rng.Intn(1 << 20)
			if err := c.dml(fmt.Sprintf("update hot set v = %d where k = %d", v, base+i)); err != nil {
				return err
			}
			c.vals[i] = v
			return nil
		default: // count(*) over the client's own key range
			rs, _, err := c.exec(fmt.Sprintf("select count(*) from hot where k >= %d and k < %d", base, base+keySpace))
			if err != nil {
				return err
			}
			return wantInt(rs, hotRows)
		}
	},
	verify: func(d *deployment, cs []*clientRun) []string { return verifyAgent(d) },
}

// ---------------------------------------------------------------------------
// rule_fire and durable_sync: one primitive insert rule per client.

func ruleFireSchema() []string {
	out := []string{"create table audit (c int, k int)"}
	for c := 0; c < nClients; c++ {
		out = append(out,
			fmt.Sprintf("create table r%d (k int, v int)", c),
			fmt.Sprintf("create trigger rf%d on r%d for insert event rins%d as insert audit values (%d, 1)", c, c, c, c))
	}
	return out
}

func ruleFireOp(c *clientRun) error {
	c.next++
	start, err := c.dmlAt(fmt.Sprintf("insert r%d values (%d, %d)", c.id, c.next, c.rng.Intn(1<<20)))
	if err != nil {
		return err
	}
	c.vnoIns++
	c.fired++
	return c.await(start, true, want{trigger: fmt.Sprintf("rf%d", c.id), vnos: []int{c.vnoIns}})
}

func ruleFireVerify(d *deployment, cs []*clientRun) []string {
	return append(verifyAgent(d), verifyAudit(cs)...)
}

var ruleFire = &workload{
	name:         "rule_fire",
	warmup:       100,
	ops:          1500,
	schema:       ruleFireSchema,
	rules:        func(c int) []string { return []string{fmt.Sprintf("rf%d", c)} },
	shadowTables: func(c int) []string { return []string{fmt.Sprintf("r%d_inserted", c)} },
	op:           ruleFireOp,
	verify:       ruleFireVerify,
}

var durableSync = &workload{
	name:         "durable_sync",
	durable:      true,
	warmup:       100,
	ops:          1500,
	schema:       ruleFireSchema,
	rules:        func(c int) []string { return []string{fmt.Sprintf("rf%d", c)} },
	shadowTables: func(c int) []string { return []string{fmt.Sprintf("r%d_inserted", c)} },
	op:           ruleFireOp,
	verify: func(d *deployment, cs []*clientRun) []string {
		fails := ruleFireVerify(d, cs)
		// Every frame the sink saw acknowledged must be applied on the
		// standby: the occurrence records among them were acknowledged to
		// the detector only after that ack.
		if applied, acked := d.applier.Applied(), d.acked.Load(); applied < uint64(acked) {
			fails = append(fails, fmt.Sprintf("standby applied %d frames, primary saw %d acknowledged", applied, acked))
		}
		if d.ctl.Degraded() {
			fails = append(fails, "sync replication degraded")
		}
		return fails
	},
}

// ---------------------------------------------------------------------------
// context_join: SEQ(ins ; upd) CHRONICLE whose action reads t.inserted.

var contextJoin = &workload{
	name:             "context_join",
	warmup:           20,
	ops:              250,
	growsWithHistory: true,
	schema: func() []string {
		out := []string{"create table audit (c int, k int)"}
		for c := 0; c < nClients; c++ {
			out = append(out,
				fmt.Sprintf("create table j%d (n int, v int)", c),
				fmt.Sprintf("create trigger ji%d on j%d for insert event jins%d as insert audit values (%d, 2)", c, c, c, c),
				fmt.Sprintf("create trigger ju%d on j%d for update event jupd%d as insert audit values (%d, 3)", c, c, c, c),
				fmt.Sprintf("create trigger js%d event jseq%d = jins%d ; jupd%d CHRONICLE as select n, v from j%d.inserted", c, c, c, c, c))
		}
		return out
	},
	rules: func(c int) []string {
		return []string{fmt.Sprintf("ji%d", c), fmt.Sprintf("ju%d", c), fmt.Sprintf("js%d", c)}
	},
	shadowTables: func(c int) []string {
		return []string{fmt.Sprintf("j%d_inserted", c), fmt.Sprintf("j%d_deleted", c)}
	},
	// One op is an insert, update, delete cycle on one row, so the base
	// table stays fixed while the shadow history grows. A cycle runs to
	// the end even when a check fails, so the vNo model stays in step
	// with the server.
	op: func(c *clientRun) error {
		c.next++
		n, a, b := c.next, c.rng.Intn(1<<20), c.rng.Intn(1<<20)
		var errs []error
		start, err := c.dmlAt(fmt.Sprintf("insert j%d values (%d, %d)", c.id, n, a))
		if err != nil {
			return err
		}
		c.vnoIns++
		c.fired++
		errs = append(errs, c.await(start, false, want{trigger: fmt.Sprintf("ji%d", c.id), vnos: []int{c.vnoIns}}))
		start, err = c.dmlAt(fmt.Sprintf("update j%d set v = %d where n = %d", c.id, b, n))
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		c.vnoUpd++
		c.fired++
		// The SEQ occurrence's parameter context is the inserted tuple and
		// the updated tuple: both carry the constituents' vNo.
		seq := want{
			trigger: fmt.Sprintf("js%d", c.id),
			vnos:    []int{c.vnoIns, c.vnoUpd},
			check:   func(res agent.ActionResult) error { return wantRows(res.Results, [][2]int{{n, a}, {n, b}}) },
		}
		errs = append(errs, c.await(start, true, want{trigger: fmt.Sprintf("ju%d", c.id), vnos: []int{c.vnoUpd}}, seq))
		_, err = c.dmlAt(fmt.Sprintf("delete j%d where n = %d", c.id, n))
		return errors.Join(append(errs, err)...)
	},
	verify: func(d *deployment, cs []*clientRun) []string {
		return append(verifyAgent(d), verifyAudit(cs)...)
	},
}

// ---------------------------------------------------------------------------
// End-of-round oracles shared by the workloads.

// verifyAgent checks the agent's own accounting: every received
// notification is exactly one of delivered, dropped or duplicate; no
// action was dead-lettered; no action report went unrouted.
func verifyAgent(d *deployment) []string {
	var fails []string
	st := d.agent.Stats()
	if st.NotificationsReceived != st.NotificationsDelivered+st.NotificationsDropped+st.NotificationsDuplicate {
		fails = append(fails, fmt.Sprintf("notification ledger: received %d != delivered %d + dropped %d + duplicate %d",
			st.NotificationsReceived, st.NotificationsDelivered, st.NotificationsDropped, st.NotificationsDuplicate))
	}
	if st.ActionsDeadLettered > 0 {
		fails = append(fails, fmt.Sprintf("%d actions dead-lettered", st.ActionsDeadLettered))
	}
	if n := d.disp.stray.Load(); n > 0 {
		fails = append(fails, fmt.Sprintf("%d action reports for no client", n))
	}
	return fails
}

// verifyAudit checks that each client's audit row count equals the number
// of its DMLs that fired a rule.
func verifyAudit(cs []*clientRun) []string {
	var fails []string
	for _, c := range cs {
		rs, err := c.conn.Query(fmt.Sprintf("select count(*) from audit where c = %d", c.id))
		if err == nil {
			err = wantInt([]*sqltypes.ResultSet{rs}, c.fired)
		}
		if err != nil {
			fails = append(fails, fmt.Sprintf("client %d audit: %v", c.id, err))
		}
	}
	return fails
}

// ---------------------------------------------------------------------------
// Clients.

// want is one rule action an op expects: the trigger that runs it and the
// vNos of its occurrence's constituents, in order.
type want struct {
	trigger string
	vnos    []int
	check   func(agent.ActionResult) error
}

// clientRun is one closed-loop client: its connection, its seeded input
// stream, the model the oracle checks replies against, and its samples.
type clientRun struct {
	id    int
	conn  *client.Conn
	rng   *rand.Rand
	inbox <-chan actionEvent
	probe *probe         // nil on untraced rounds
	sess  *timedUpstream // this client's gateway session upstream (traced)

	// model
	vals           []int
	next           int
	vnoIns, vnoUpd int
	fired          int

	measuring    bool
	ops, failed  int
	errs         []string
	stmt         []float64 // statement round trips, µs
	reaction     []float64 // DML sent → last expected action reported, µs
	gwSelf       []float64
	engExec      []float64
	sessionExecs int64
	stages       map[string][]float64 // blocking-path stages of each reaction
}

func (c *clientRun) exec(sql string) ([]*sqltypes.ResultSet, time.Time, error) {
	var before int64
	if c.sess != nil {
		before = c.sess.execs.Load()
	}
	start := time.Now()
	rs, err := c.conn.Exec(sql)
	d := time.Since(start)
	if c.measuring {
		c.stmt = append(c.stmt, us(d))
		if c.sess != nil {
			n := c.sess.execs.Load() - before
			c.sessionExecs += n
			if n == 1 {
				e := time.Duration(c.sess.last.Load())
				c.engExec = append(c.engExec, us(e))
				c.gwSelf = append(c.gwSelf, us(d-e))
			}
		}
	}
	return rs, start, err
}

// dmlAt runs one single-row DML and returns when it was sent.
func (c *clientRun) dmlAt(sql string) (time.Time, error) {
	rs, start, err := c.exec(sql)
	if err != nil {
		return start, err
	}
	if n := rowsAffected(rs); n != 1 {
		return start, fmt.Errorf("%q affected %d rows", sql, n)
	}
	return start, nil
}

// dml runs a DML no rule watches; its reply is its whole effect, so its
// round trip is also its reaction time.
func (c *clientRun) dml(sql string) error {
	start, err := c.dmlAt(sql)
	if err == nil && c.measuring {
		c.reaction = append(c.reaction, us(time.Since(start)))
	}
	return err
}

// await blocks until every wanted action has been reported on ActionDone
// (or the op timeout passes), checking each report. With sample set, the
// time from start to the last report is recorded as a reaction.
func (c *clientRun) await(start time.Time, sample bool, wants ...want) error {
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	pending := append([]want(nil), wants...)
	var errs []string
	var last actionEvent
	for len(pending) > 0 {
		select {
		case ev := <-c.inbox:
			i := matchWant(pending, ev.res)
			if i < 0 {
				errs = append(errs, fmt.Sprintf("unexpected action %s %v", ev.res.Rule, vnosOf(ev.res)))
				continue
			}
			if ev.res.Err != nil {
				errs = append(errs, fmt.Sprintf("action %s: %v", ev.res.Rule, ev.res.Err))
			} else if chk := pending[i].check; chk != nil {
				if err := chk(ev.res); err != nil {
					errs = append(errs, fmt.Sprintf("action %s: %v", ev.res.Rule, err))
				}
			}
			pending = append(pending[:i], pending[i+1:]...)
			last = ev
		case <-timer.C:
			for _, w := range pending {
				errs = append(errs, fmt.Sprintf("timed out waiting for %s %v", w.trigger, w.vnos))
			}
			pending = nil
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	if sample && c.measuring {
		c.reaction = append(c.reaction, us(last.at.Sub(start)))
		c.traceStages(start, last)
	}
	return nil
}

// traceStages splits one reaction into its blocking-path stages, from the
// spans the probe recorded for the occurrence that fired the last action:
// ingress (DML sent → notifier send), detect (→ Forward stamp), wait (→
// action Exec start: the Action Handler's FIFO wait), exec (the action's
// upstream Exec) and report (Exec end → ActionDone). The action.*_us
// figures are the last three.
func (c *clientRun) traceStages(start time.Time, ev actionEvent) {
	if c.probe == nil || !ev.traced || ev.res.Occ == nil || len(ev.res.Occ.Constituents) == 0 {
		return
	}
	term := ev.res.Occ.Constituents[len(ev.res.Occ.Constituents)-1]
	sent, detected, ok := c.probe.stamps(occKey{event: term.Event, vno: term.VNo})
	if !ok {
		return
	}
	add := func(name string, d time.Duration) { c.stages[name] = append(c.stages[name], us(d)) }
	add("ingress", sent.Sub(start))
	add("detect", detected.Sub(sent))
	add("wait", ev.span.start.Sub(detected))
	add("exec", ev.span.end.Sub(ev.span.start))
	add("report", ev.at.Sub(ev.span.end))
}

func matchWant(ws []want, res agent.ActionResult) int {
	got := vnosOf(res)
	for i, w := range ws {
		if shortName(res.Rule) != w.trigger || len(got) != len(w.vnos) {
			continue
		}
		same := true
		for j := range got {
			same = same && got[j] == w.vnos[j]
		}
		if same {
			return i
		}
	}
	return -1
}

func vnosOf(res agent.ActionResult) []int {
	if res.Occ == nil {
		return nil
	}
	out := make([]int, len(res.Occ.Constituents))
	for i, p := range res.Occ.Constituents {
		out[i] = p.VNo
	}
	return out
}

// shortName strips the db.user. qualification off an internal name.
func shortName(internal string) string {
	return internal[strings.LastIndexByte(internal, '.')+1:]
}

// ---------------------------------------------------------------------------
// Action dispatch.

// actionEvent is one ActionDone report with the time the benchmark saw it
// and, on traced rounds, the span of the upstream Exec that ran it.
type actionEvent struct {
	res    agent.ActionResult
	at     time.Time
	span   actionSpan
	traced bool
}

// dispatcher routes ActionDone reports to the client whose rule ran.
type dispatcher struct {
	routes map[string]int // trigger short name → client; read-only
	inbox  [nClients]chan actionEvent
	stray  atomic.Int64
	p      *probe
	stop   chan struct{}
	done   chan struct{}
}

func startDispatcher(ch <-chan agent.ActionResult, p *probe, w *workload) *dispatcher {
	d := &dispatcher{routes: make(map[string]int), p: p, stop: make(chan struct{}), done: make(chan struct{})}
	for c := 0; c < nClients; c++ {
		for _, r := range w.rules(c) {
			d.routes[r] = c
		}
	}
	for i := range d.inbox {
		// Far above the three actions an op can have in flight, so a
		// slow client never stalls the dispatcher; overflow counts as
		// stray.
		d.inbox[i] = make(chan actionEvent, 1024)
	}
	go d.loop(ch)
	return d
}

func (d *dispatcher) loop(ch <-chan agent.ActionResult) {
	defer close(d.done)
	for {
		select {
		case res := <-ch:
			ev := actionEvent{res: res, at: time.Now()}
			if d.p != nil && d.p.trace {
				ev.span, ev.traced = d.p.popAction(res.Rule)
			}
			c, ok := d.routes[shortName(res.Rule)]
			if !ok {
				d.stray.Add(1)
				continue
			}
			select {
			case d.inbox[c] <- ev:
			default:
				d.stray.Add(1)
			}
		case <-d.stop:
			return
		}
	}
}

func (d *dispatcher) close() {
	close(d.stop)
	<-d.done
}

// ---------------------------------------------------------------------------
// Result checks.

func rowsAffected(rs []*sqltypes.ResultSet) int {
	n := 0
	for _, r := range rs {
		n += r.RowsAffected
	}
	return n
}

// lastRows returns the rows of the last result set that has a schema.
func lastRows(rs []*sqltypes.ResultSet) ([]sqltypes.Row, bool) {
	for i := len(rs) - 1; i >= 0; i-- {
		if rs[i].Schema != nil {
			return rs[i].Rows, true
		}
	}
	return nil, false
}

// wantInt checks that the statement returned exactly one row holding want.
func wantInt(rs []*sqltypes.ResultSet, want int) error {
	rows, ok := lastRows(rs)
	if !ok || len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("want one value %d, got %v", want, rows)
	}
	got, ok := rows[0][0].AsInt()
	if !ok || got != int64(want) {
		return fmt.Errorf("want %d, got %v", want, rows[0][0])
	}
	return nil
}

// wantRows checks that the last result set holds exactly the given (n, v)
// tuples, in any order.
func wantRows(rs []*sqltypes.ResultSet, want [][2]int) error {
	rows, ok := lastRows(rs)
	if !ok {
		return fmt.Errorf("no result rows, want %v", want)
	}
	got := make([][2]int, 0, len(rows))
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("row %v has %d columns", r, len(r))
		}
		n, ok1 := r[0].AsInt()
		v, ok2 := r[1].AsInt()
		if !ok1 || !ok2 {
			return fmt.Errorf("row %v is not (int, int)", r)
		}
		got = append(got, [2]int{int(n), int(v)})
	}
	less := func(s [][2]int) func(i, j int) bool {
		return func(i, j int) bool { return s[i][0] < s[j][0] || s[i][0] == s[j][0] && s[i][1] < s[j][1] }
	}
	want = append([][2]int(nil), want...)
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("context rows %v, want %v", got, want)
	}
	return nil
}
