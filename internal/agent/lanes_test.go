package agent

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// laneHook observes the action batches the Action Handler sends: before
// runs ahead of each one's Exec and after behind it, with the short trigger
// name the batch executes ("ta" for sentineldb.sharma.ta__Proc).
type laneHook struct {
	before, after func(up *hookedUpstream, rule string)
}

type hookedUpstream struct {
	up   Upstream
	hook *laneHook
}

func (u *hookedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	rule := actionRule(sql)
	if rule != "" && u.hook.before != nil {
		u.hook.before(u, rule)
	}
	rs, err := u.up.Exec(sql)
	if rule != "" && u.hook.after != nil {
		u.hook.after(u, rule)
	}
	return rs, err
}

func (u *hookedUpstream) Close() error { return u.up.Close() }

// actionRule returns the short trigger name an action batch executes, or
// "" for any other batch.
func actionRule(sql string) string {
	i := strings.LastIndex(sql, "\nexecute ")
	if i < 0 {
		return ""
	}
	proc := strings.TrimSuffix(strings.TrimSpace(sql[i+len("\nexecute "):]), "__Proc")
	return proc[strings.LastIndex(proc, ".")+1:]
}

// newLaneRig is newRig with every agent connection passing through hook.
// A nil eng starts a fresh engine holding the given tables; passing an
// earlier rig's engine restarts the agent over its state.
func newLaneRig(t *testing.T, eng *engine.Engine, hook *laneHook, tables ...string) *rig {
	t.Helper()
	fresh := eng == nil
	if fresh {
		eng = engine.New(catalog.New())
	}
	base := LocalDialer(eng)
	a, err := New(Config{
		Dial: func(user, db string) (Upstream, error) {
			up, err := base(user, db)
			if err != nil {
				return nil, err
			}
			return &hookedUpstream{up: up, hook: hook}, nil
		},
		NotifyAddr: "-",
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	eng.SetNotifier(func(host string, port int, msg string) error {
		a.Deliver(msg)
		return nil
	})
	if fresh {
		var b strings.Builder
		b.WriteString("create database sentineldb\nuse sentineldb\n")
		for _, tbl := range tables {
			fmt.Fprintf(&b, "create table %s (k int, v int)\n", tbl)
		}
		if _, err := eng.NewSession("sharma").ExecScript(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{eng: eng, agent: a}
}

func (r *rig) mustExec(t *testing.T, sqls ...string) {
	t.Helper()
	cs := r.session(t, "sharma", "sentineldb")
	for _, sql := range sqls {
		if _, err := cs.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// insert runs one DML statement straight against the engine; the
// in-process notifier fires the rules before it returns.
func (r *rig) insert(t *testing.T, table string, k int) {
	t.Helper()
	sess := r.eng.NewSession("sharma")
	if err := sess.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecScript(fmt.Sprintf("insert %s values (%d, %d)", table, k, k)); err != nil {
		t.Fatal(err)
	}
}

// actionLog records action starts and ends in order.
type actionLog struct {
	mu     sync.Mutex
	events []string
}

func (l *actionLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *actionLog) index(ev string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, e := range l.events {
		if e == ev {
			return i
		}
	}
	return -1
}

// gate is a closable channel that tolerates double close.
type gate struct {
	once sync.Once
	ch   chan struct{}
}

func newGate() *gate  { return &gate{ch: make(chan struct{})} }
func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }
func (g *gate) wait() bool {
	select {
	case <-g.ch:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestActionLanesDisjointTablesConcurrent pins the tentpole: table ta's
// action cannot finish until table tb's action has, which deadlocks (and
// times out) if actions on unrelated tables queue behind one another.
func TestActionLanesDisjointTablesConcurrent(t *testing.T) {
	bDone := newGate()
	var timedOut atomic.Bool
	hook := &laneHook{
		before: func(_ *hookedUpstream, rule string) {
			if rule == "ra" && !bDone.wait() {
				timedOut.Store(true)
			}
		},
		after: func(_ *hookedUpstream, rule string) {
			if rule == "rb" {
				bDone.open()
			}
		},
	}
	r := newLaneRig(t, nil, hook, "ta", "tb")
	r.mustExec(t,
		"create trigger ra on ta for insert event insA as print 'a'",
		"create trigger rb on tb for insert event insB as print 'b'")
	r.insert(t, "ta", 1)
	r.insert(t, "tb", 1)
	first, second := waitAction(t, r.agent), waitAction(t, r.agent)
	if first.Rule != "sentineldb.sharma.rb" || second.Rule != "sentineldb.sharma.ra" {
		t.Errorf("completion order %s, %s; want rb before ra", first.Rule, second.Rule)
	}
	if timedOut.Load() {
		t.Fatal("ta's action waited out tb's: disjoint tables were serialized")
	}
	if first.Err != nil || second.Err != nil {
		t.Fatalf("actions failed: %v / %v", first.Err, second.Err)
	}
}

// TestActionLanesCompositeWaitsOnBothTables: a composite over two tables
// takes both lanes, so it starts only after the in-flight actions on each
// table finish — while those two still run concurrently with each other.
func TestActionLanesCompositeWaitsOnBothTables(t *testing.T) {
	var log actionLog
	gateA, bStarted := newGate(), newGate()
	hook := &laneHook{
		before: func(_ *hookedUpstream, rule string) {
			log.add("start:" + rule)
			switch rule {
			case "ra":
				gateA.wait()
			case "rb":
				bStarted.open()
				// Hold rb until ra has been let go, so both are in flight
				// while the composite is queued behind them.
				gateA.wait()
				time.Sleep(20 * time.Millisecond)
			}
		},
		after: func(_ *hookedUpstream, rule string) { log.add("end:" + rule) },
	}
	r := newLaneRig(t, nil, hook, "ta", "tb")
	r.mustExec(t,
		"create trigger ra on ta for insert event insA as print 'a'",
		"create trigger rb on tb for insert event insB as print 'b'",
		"create trigger rc event bothAB = insA ^ insB as print 'c'")
	if got, want := r.agent.triggers["sentineldb.sharma.rc"].Lanes, []string{"sentineldb.sharma.ta", "sentineldb.sharma.tb"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("composite lanes %v, want %v", got, want)
	}
	r.insert(t, "ta", 1)
	r.insert(t, "tb", 1)
	if !bStarted.wait() {
		t.Fatal("tb's action never started while ta's was in flight")
	}
	time.Sleep(20 * time.Millisecond)
	if log.index("start:rc") >= 0 {
		t.Fatal("composite started while both of its tables had actions in flight")
	}
	gateA.open()
	r.agent.WaitActions()
	c := log.index("start:rc")
	if c < 0 || c < log.index("end:ra") || c < log.index("end:rb") {
		t.Errorf("composite did not wait for both tables: %v", log.events)
	}
}

// TestActionLanesMapDrains: finished lanes are forgotten, so the map does
// not grow with every table that ever fired (dropped tables included).
func TestActionLanesMapDrains(t *testing.T) {
	tables := []string{"t0", "t1", "t2", "t3"}
	r := newLaneRig(t, nil, &laneHook{}, tables...)
	for i, tbl := range tables {
		r.mustExec(t, fmt.Sprintf("create trigger r%d on %s for insert event ins%d as print 'x'", i, tbl, i))
	}
	// Each table's second rule also reads its neighbour's tuples, so the
	// lane sets overlap in a ring.
	for i := range tables {
		r.mustExec(t, fmt.Sprintf("create trigger q%d event ins%d as select k from %s.inserted", i, i, tables[(i+1)%len(tables)]))
	}
	for round := 0; round < 3; round++ {
		for _, tbl := range tables {
			r.insert(t, tbl, round)
		}
	}
	r.mustExec(t, "drop trigger r0")
	if _, err := r.eng.NewSession("sharma").ExecScript("use sentineldb\ndrop table t0"); err != nil {
		t.Fatal(err)
	}
	r.agent.WaitActions()
	r.agent.actionMu.Lock()
	left := len(r.agent.laneTail)
	r.agent.actionMu.Unlock()
	if left != 0 {
		t.Errorf("lane map holds %d entries after WaitActions", left)
	}
	if got := r.agent.Stats().ActionsRun; got != 24 {
		t.Errorf("actions run = %d, want 24", got)
	}
}

// TestActionLanesPoolBounded fires a burst over 64 tables at once: every lane
// is free, so only the pool bounds concurrency, and it never exceeds its
// limit.
func TestActionLanesPoolBounded(t *testing.T) {
	const tables = 64
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	conns := make(map[*hookedUpstream]bool)
	hook := &laneHook{
		before: func(up *hookedUpstream, _ string) {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			conns[up] = true
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		},
		after: func(*hookedUpstream, string) {
			mu.Lock()
			inFlight--
			mu.Unlock()
		},
	}
	names := make([]string, tables)
	for i := range names {
		names[i] = fmt.Sprintf("b%02d", i)
	}
	r := newLaneRig(t, nil, hook, names...)
	for i, tbl := range names {
		r.mustExec(t, fmt.Sprintf("create trigger r%02d on %s for insert event ins%02d as print 'x'", i, tbl, i))
	}
	var b strings.Builder
	b.WriteString("use sentineldb\n")
	for _, tbl := range names {
		fmt.Fprintf(&b, "insert %s values (1, 1)\n", tbl)
	}
	if _, err := r.eng.NewSession("sharma").ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	r.agent.WaitActions()
	limit := r.agent.actions.limit
	mu.Lock()
	defer mu.Unlock()
	if maxInFlight > limit || len(conns) > limit {
		t.Errorf("pool limit %d exceeded: %d actions in flight on %d connections", limit, maxInFlight, len(conns))
	}
	if maxInFlight < 2 {
		t.Errorf("at most %d action in flight; disjoint tables should overlap", maxInFlight)
	}
	if g := r.agent.met.actionConns.Value(); g < 2 || g > int64(limit) {
		t.Errorf("eca_action_conns = %d, want within [2, %d]", g, limit)
	}
	if got := r.agent.Stats().ActionsRun; got != tables {
		t.Errorf("actions run = %d, want %d", got, tables)
	}
}

// TestActionLanesRecoveryParity: a restarted agent reads each rule's
// lanes back from its procedure, so they match the install path's —
// including rx, whose action reads another table's x.inserted and must
// keep serializing with x's rules.
func TestActionLanesRecoveryParity(t *testing.T) {
	var log actionLog
	gateX := newGate()
	holdX := false
	var holdMu sync.Mutex
	hook := &laneHook{
		before: func(_ *hookedUpstream, rule string) {
			log.add("start:" + rule)
			holdMu.Lock()
			hold := holdX && rule == "rxt"
			holdMu.Unlock()
			if hold {
				gateX.wait()
			}
		},
		after: func(_ *hookedUpstream, rule string) { log.add("end:" + rule) },
	}
	r1 := newLaneRig(t, nil, hook, "stock", "x", "y")
	r1.mustExec(t,
		"create trigger rs on stock for insert event addStk as print 's'",
		"create trigger rxt on x for insert event addX as print 'x'",
		"create trigger rx event addStk as select k from x.inserted",
		"create trigger ry on y for delete event delY as select k from y.deleted",
		"create trigger rc event sx = addStk ; addX as select k from stock.inserted",
		"create trigger rt event at2030 = [2030-01-01 00:00:00] as print 't'")
	lanes := func(a *Agent) map[string][]string {
		a.mu.Lock()
		defer a.mu.Unlock()
		out := make(map[string][]string)
		for name, info := range a.triggers {
			out[name] = info.Lanes
		}
		return out
	}
	installed := lanes(r1.agent)
	if got, want := installed["sentineldb.sharma.rx"], []string{"sentineldb.sharma.stock", "sentineldb.sharma.x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rx lanes %v, want %v", got, want)
	}
	if got := installed["sentineldb.sharma.rt"]; !reflect.DeepEqual(got, []string{""}) {
		t.Fatalf("table-less rule lanes %q, want the shared \"\" lane", got)
	}
	r1.agent.Close()

	r2 := newLaneRig(t, r1.eng, hook)
	if recovered := lanes(r2.agent); !reflect.DeepEqual(recovered, installed) {
		t.Fatalf("recovered lanes differ:\n got %v\nwant %v", recovered, installed)
	}

	// Behaviour after the restart: with x's rule in flight, rs (stock only)
	// runs, but rx waits for x's lane.
	holdMu.Lock()
	holdX = true
	holdMu.Unlock()
	r2.insert(t, "x", 1)
	r2.insert(t, "stock", 1)
	deadline := time.Now().Add(5 * time.Second)
	for log.index("end:rs") < 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if log.index("end:rs") < 0 {
		t.Fatal("rs did not run while x's lane was held")
	}
	if log.index("start:rx") >= 0 {
		t.Fatal("rx started while x's rule was in flight")
	}
	gateX.open()
	r2.agent.WaitActions()
	if rx, xt := log.index("start:rx"), log.index("end:rxt"); rx < 0 || rx < xt {
		t.Errorf("rx did not wait for x's rule: %v", log.events)
	}
}

func TestActionLanesPrologueInvertsGenerator(t *testing.T) {
	shadows := []ShadowRef{
		{Table: "db.u.stock", Op: "inserted"},
		{Table: "db.u.a_inserted", Op: "deleted"},
		{Table: "db.u.x_deleted", Op: "inserted"},
	}
	proc := genActionProc("db.u.t__Proc", "RECENT", "select * from db.u.stock_inserted_tmp\ndelete audit", shadows)
	if got := prologueShadows(proc); !reflect.DeepEqual(got, shadows) {
		t.Errorf("prologueShadows = %v, want %v", got, shadows)
	}
	if got := prologueShadows(genActionProc("db.u.t__Proc", "RECENT", "delete audit", nil)); got != nil {
		t.Errorf("no-shadow procedure: %v", got)
	}
}
