package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/sqlparse"
)

// prologueMatches is how many sysContext rows name the action's context
// and shadow table, and so how many rows the context join returns.
const prologueMatches = 2

// newPrologueEngine builds what the Action Handler's context join runs
// against: a shadow table of n rows (vNo 1..n), an 8-row sysContext of
// which prologueMatches rows select the last shadow rows, and the action
// procedure the agent's code generator emits for a rule reading
// stock.inserted in the RECENT context.
func newPrologueEngine(tb testing.TB, n int) *engine.Engine {
	tb.Helper()
	eng := engine.New(catalog.New())
	eng.SetNotifier(nil)
	var b strings.Builder
	b.WriteString("create database db\nGO\nuse db\nGO\n")
	b.WriteString(agent.SysTableDDL[agent.TabContext] + "\nGO\n")
	b.WriteString("create table stock (symbol varchar(10) not null, price float null)\nGO\n")
	b.WriteString("select * into db.sharma.stock_inserted from stock where 1 = 2\n" +
		"alter table db.sharma.stock_inserted add vNo int null\nGO\n")
	b.WriteString("select * into db.sharma.stock_inserted_tmp from db.sharma.stock_inserted where 1 = 2\nGO\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "insert db.sharma.stock_inserted values ('S%d', %d, %d)\n", i, i, i)
	}
	b.WriteString("GO\n")
	for i := 0; i < prologueMatches; i++ {
		fmt.Fprintf(&b, "insert sysContext values ('db.sharma.stock_inserted', 'RECENT', %d)\n", n-i)
	}
	for i := prologueMatches; i < 8; i++ {
		table, ctx := "db.sharma.stock_deleted", "RECENT"
		if i%2 == 0 {
			table, ctx = "db.sharma.stock_inserted", "CHRONICLE"
		}
		fmt.Fprintf(&b, "insert sysContext values ('%s', '%s', %d)\n", table, ctx, i)
	}
	b.WriteString("GO\n")
	b.WriteString(agent.GenActionProcSQL("db.sharma.r__Proc", "RECENT",
		"select symbol, vNo from db.sharma.stock_inserted_tmp",
		[]agent.ShadowRef{{Table: "db.sharma.stock", Op: "inserted"}}))
	if _, err := eng.NewSession("sharma").ExecScript(b.String()); err != nil {
		tb.Fatalf("prologue fixture: %v", err)
	}
	return eng
}

// prologueSession opens a session in the fixture's database.
func prologueSession(tb testing.TB, eng *engine.Engine) *engine.Session {
	s := eng.NewSession("sharma")
	if err := s.Use("db"); err != nil {
		tb.Error(err)
	}
	return s
}

// runPrologue executes the action procedure once and checks that the
// join selected exactly the context's rows.
func runPrologue(tb testing.TB, s *engine.Session, n int) {
	res, err := s.ExecBatch("execute db.sharma.r__Proc")
	if err != nil {
		tb.Fatal(err)
	}
	rows := res[len(res)-1].Rows
	if len(rows) != prologueMatches {
		tb.Fatalf("context join returned %d rows, want %d", len(rows), prologueMatches)
	}
	for _, r := range rows {
		if v := r[1].Int(); v <= int64(n-prologueMatches) {
			tb.Fatalf("context join returned vNo %d outside the context", v)
		}
	}
}

// BenchmarkActionPrologueJoin runs the generated action procedure: the
// sysContext × shadow join of §5.6 followed by a read of its result.
func BenchmarkActionPrologueJoin(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			s := prologueSession(b, newPrologueEngine(b, n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runPrologue(b, s, n)
			}
		})
	}
}

// The context join allocates per output row, never per shadow row: ten
// times the history costs no more allocations when the context selects
// the same rows.
func TestActionPrologueAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s := prologueSession(t, newPrologueEngine(t, n))
		return testing.AllocsPerRun(20, func() { runPrologue(t, s, n) })
	}
	small, large := allocs(100), allocs(1000)
	const extraOutputRows = 0 // both sizes select prologueMatches rows
	if large > small+extraOutputRows {
		t.Fatalf("allocs/op grew with history: %.0f at 100 shadow rows, %.0f at 1000", small, large)
	}
}

// Two sessions run the same parsed procedure body (the context join) and
// the same native trigger body (the inserted × SysPrimitiveEvent join of
// the generated primitive-event trigger) at once. Each must see its own
// rows, and neither may write the shared parsed bodies: binding state
// lives beside the AST, per execution. Run under -race.
func TestConcurrentSessionsShareParsedBodies(t *testing.T) {
	const n, iters = 280, 300
	eng := newPrologueEngine(t, n)
	s := prologueSession(t, eng)
	setup := agent.SysTableDDL[agent.TabPrimitiveEvent] + "\nGO\n" +
		fmt.Sprintf("insert SysPrimitiveEvent (eventName, vNo) values ('db.sharma.addStk', %d)\nGO\n", n) +
		"create procedure db.sharma.ctx__Proc as\n" +
		"select s.symbol, s.vNo from db.sharma.stock_inserted s, sysContext c " +
		"where c.context = 'RECENT' and c.tableName = 'db.sharma.stock_inserted' and s.vNo = c.vNo\nGO\n"
	batches := agent.GenPrimitiveEventSQL("db.sharma.addStk", "db.sharma.stock", "insert", "127.0.0.1", 1)
	setup += batches[len(batches)-1] // the trigger; the shadow table exists
	if _, err := s.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	db, err := eng.Catalog().Database("db")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := db.Procedure("sharma", "ctx__Proc", "sharma")
	if err != nil {
		t.Fatal(err)
	}
	trig, ok := db.TriggerFor("sharma", "stock", "sharma", "insert")
	if !ok {
		t.Fatal("trigger not created")
	}
	render := func() string {
		var b strings.Builder
		for _, st := range append(append([]sqlparse.Statement(nil), proc.Body...), trig.Body...) {
			b.WriteString(st.SQL() + "\n")
		}
		return b.String()
	}
	bodies := render()

	var wg sync.WaitGroup
	for _, who := range []string{"A", "B"} {
		wg.Add(1)
		go func(who string) {
			defer wg.Done()
			sess := prologueSession(t, eng)
			for i := 0; i < iters; i++ {
				if _, err := sess.ExecBatch(fmt.Sprintf("insert stock values ('%s%d', %d)", who, i, i)); err != nil {
					t.Errorf("session %s insert %d: %v", who, i, err)
					return
				}
				res, err := sess.ExecBatch("execute db.sharma.ctx__Proc")
				if err != nil {
					t.Errorf("session %s exec %d: %v", who, i, err)
					return
				}
				rows := res[len(res)-1].Rows
				if len(rows) != prologueMatches || rows[0][0].Str() != fmt.Sprintf("S%d", n-1) ||
					rows[1][0].Str() != fmt.Sprintf("S%d", n) {
					t.Errorf("session %s exec %d: context join returned %v", who, i, rows)
					return
				}
			}
		}(who)
	}
	wg.Wait()
	if render() != bodies {
		t.Fatal("a shared parsed body changed while sessions executed it")
	}
	// Each insert's trigger recorded exactly its own inserted row.
	res, err := s.ExecBatch("select symbol from db.sharma.stock_inserted where vNo > " + fmt.Sprint(n))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range res[len(res)-1].Rows {
		seen[r[0].Str()]++
	}
	for _, who := range []string{"A", "B"} {
		for i := 0; i < iters; i++ {
			if k := fmt.Sprintf("%s%d", who, i); seen[k] != 1 {
				t.Errorf("shadow holds %s %d times, want once", k, seen[k])
			}
		}
	}
	if len(seen) != 2*iters {
		t.Errorf("shadow holds %d distinct new rows, want %d", len(seen), 2*iters)
	}
}
