package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

func TestOrderByNullsFirst(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (2) insert t values (null) insert t values (1)")
	rows := lastRows(mustExec(t, s, "select a from t order by a"))
	if !rows[0][0].IsNull() || rows[1][0].Int() != 1 || rows[2][0].Int() != 2 {
		t.Errorf("order with nulls: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t order by a desc"))
	if rows[0][0].Int() != 2 {
		t.Errorf("desc order: %v", rows)
	}
}

func TestInListWithNulls(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (2) insert t values (null)")
	rows := lastRows(mustExec(t, s, "select a from t where a in (1, null)"))
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("IN with NULL list element: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t where a not in (1)"))
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("NOT IN skips NULL rows: %v", rows)
	}
}

func TestSelectIntoFromJoin(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, `create table a (k int null, x varchar(5) null)
create table b (k int null, y float null)
insert a values (1, 'one') insert a values (2, 'two')
insert b values (1, 1.5) insert b values (3, 3.5)`)
	mustExec(t, s, "select a.x, b.y into joined from a, b where a.k = b.k")
	rows := lastRows(mustExec(t, s, "select x, y from joined"))
	if len(rows) != 1 || rows[0][0].Str() != "one" || rows[0][1].Float() != 1.5 {
		t.Errorf("select into join: %v", rows)
	}
}

func TestTransactionRollsBackTriggerEffects(t *testing.T) {
	// A transaction that fires a trigger must undo the trigger's writes on
	// rollback — the property the agent's shadow tables depend on.
	s, _ := newTestSession(t)
	mustExec(t, s, "create table base (a int null) create table shadow (a int null)")
	mustExec(t, s, "create trigger tg on base for insert as insert shadow select * from inserted")
	mustExec(t, s, "begin tran insert base values (1) insert base values (2)")
	rows := lastRows(mustExec(t, s, "select count(*) from shadow"))
	if rows[0][0].Int() != 2 {
		t.Fatalf("shadow rows inside txn: %v", rows[0])
	}
	mustExec(t, s, "rollback")
	rows = lastRows(mustExec(t, s, "select count(*) from base"))
	if rows[0][0].Int() != 0 {
		t.Errorf("base after rollback: %v", rows[0])
	}
	rows = lastRows(mustExec(t, s, "select count(*) from shadow"))
	if rows[0][0].Int() != 0 {
		t.Errorf("shadow after rollback: %v (trigger effects survived)", rows[0])
	}
}

func TestProcedureRecursionLimit(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	// A procedure that calls itself must hit the nesting limit.
	mustExec(t, s, "create procedure p as execute p")
	if _, err := s.ExecScript("execute p"); err == nil ||
		!strings.Contains(err.Error(), "nesting") {
		t.Errorf("recursion error: %v", err)
	}
}

func TestAggregatesOnStringsAndDates(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (name varchar(10) null, ts datetime null)")
	mustExec(t, s, `insert t values ('beta', '2026-01-02 00:00:00')
insert t values ('alpha', '2026-01-03 00:00:00')
insert t values ('gamma', '2026-01-01 00:00:00')`)
	rows := lastRows(mustExec(t, s, "select min(name), max(name), min(ts), max(ts) from t"))
	r := rows[0]
	if r[0].Str() != "alpha" || r[1].Str() != "gamma" {
		t.Errorf("string min/max: %v", r)
	}
	if r[2].Time().Day() != 1 || r[3].Time().Day() != 3 {
		t.Errorf("datetime min/max: %v", r)
	}
	// sum over strings errors.
	if _, err := s.ExecScript("select sum(name) from t"); err == nil {
		t.Error("sum over strings accepted")
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("insert t values (%d)", i))
	}
	rows := lastRows(mustExec(t, s, "select a % 2, count(*) from t group by a % 2 order by col1"))
	if len(rows) != 2 || rows[0][1].Int() != 5 || rows[1][1].Int() != 5 {
		t.Errorf("expression group: %v", rows)
	}
}

func TestCrossDatabaseDML(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "create database other use other")
	mustExec(t, s, "insert db.sharma.t values (42)")
	mustExec(t, s, "update db.sharma.t set a = a + 1")
	rows := lastRows(mustExec(t, s, "select a from db.sharma.t"))
	if len(rows) != 1 || rows[0][0].Int() != 43 {
		t.Errorf("cross-db dml: %v", rows)
	}
	mustExec(t, s, "delete db.sharma.t")
	rows = lastRows(mustExec(t, s, "select count(*) from db.sharma.t"))
	if rows[0][0].Int() != 0 {
		t.Errorf("cross-db delete: %v", rows)
	}
}

func TestAlterTableVisibleInStar(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1)")
	mustExec(t, s, "alter table t add b varchar(5) null")
	rows := lastRows(mustExec(t, s, "select * from t"))
	if len(rows[0]) != 2 || !rows[0][1].IsNull() {
		t.Errorf("star after alter: %v", rows)
	}
	mustExec(t, s, "update t set b = 'x'")
	rows = lastRows(mustExec(t, s, "select b from t"))
	if rows[0][0].Str() != "x" {
		t.Errorf("new column update: %v", rows)
	}
}

func TestTriggerChainMessageOrder(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table a (x int null) create table b (x int null)")
	mustExec(t, s, "create trigger ta on a for insert as print 'ta before' insert b select * from inserted print 'ta after'")
	mustExec(t, s, "create trigger tb on b for insert as print 'tb'")
	rs := mustExec(t, s, "insert a values (1)")
	msgs := allMessages(rs)
	want := []string{"ta before", "tb", "ta after"}
	if fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Errorf("nested trigger message order: %v", msgs)
	}
}

func TestStringConcatAndLikeInWhere(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (first varchar(10) null, last varchar(10) null)")
	mustExec(t, s, "insert t values ('John', 'Smith') insert t values ('Jane', 'Doe')")
	rows := lastRows(mustExec(t, s, "select first + ' ' + last from t where first like 'J_hn'"))
	if len(rows) != 1 || rows[0][0].Str() != "John Smith" {
		t.Errorf("concat+like: %v", rows)
	}
}

func TestDistinctOnExpressions(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (3) insert t values (5)")
	rows := lastRows(mustExec(t, s, "select distinct a % 2 from t"))
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("distinct expr: %v", rows)
	}
}

func TestInsertSelectWithColumnList(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table src (a int null, b int null) create table dst (x int null, y int null, z int null)")
	mustExec(t, s, "insert src values (1, 2)")
	mustExec(t, s, "insert dst (z, x) select a, b from src")
	rows := lastRows(mustExec(t, s, "select x, y, z from dst"))
	if rows[0][0].Int() != 2 || !rows[0][1].IsNull() || rows[0][2].Int() != 1 {
		t.Errorf("column-list insert-select: %v", rows)
	}
}

func TestSelfJoin(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table emp (id int null, boss int null)")
	mustExec(t, s, "insert emp values (1, null) insert emp values (2, 1) insert emp values (3, 1)")
	rows := lastRows(mustExec(t, s,
		"select e.id, m.id from emp e, emp m where e.boss = m.id order by e.id"))
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[0][1].Int() != 1 {
		t.Errorf("self join: %v", rows)
	}
}

func TestUpdateInsideTriggerSeesConsistentState(t *testing.T) {
	// The Figure 11 pattern: the trigger updates a counter table and joins
	// against it in the same body.
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null) create table counter (n int null) insert counter values (0)")
	mustExec(t, s, `create trigger tg on t for insert as
update counter set n = n + 1
insert t_log select i.a, c.n from inserted i, counter c`)
	mustExec(t, s, "create table t_log (a int null, n int null)")
	// Re-create the trigger now that t_log exists (engine validates lazily
	// at execution, so ordering is fine either way).
	for i := 1; i <= 3; i++ {
		mustExec(t, s, fmt.Sprintf("insert t values (%d)", i*10))
	}
	rows := lastRows(mustExec(t, s, "select a, n from t_log order by n"))
	if len(rows) != 3 || rows[0][1].Int() != 1 || rows[2][1].Int() != 3 {
		t.Errorf("counter progression: %v", rows)
	}
}

func TestPrintWithFunctions(t *testing.T) {
	s, _ := newTestSession(t)
	rs := mustExec(t, s, "print 'user is ' + user_name() + ' in ' + db_name()")
	msgs := allMessages(rs)
	if len(msgs) != 1 || msgs[0] != "user is sharma in db" {
		t.Errorf("print: %v", msgs)
	}
}

func TestEmptyBatchAndSemicolons(t *testing.T) {
	s, _ := newTestSession(t)
	rs, err := s.ExecScript(";;;")
	if err != nil || len(rs) != 0 {
		t.Errorf("semicolon batch: %v %v", rs, err)
	}
	rs, err = s.ExecScript("   \n\t  ")
	if err != nil || len(rs) != 0 {
		t.Errorf("blank batch: %v %v", rs, err)
	}
	mustExec(t, s, "create table t (a int null); insert t values (1); select a from t")
}

// Rows snapshots share the stored rows, so a transaction's writes and its
// rollback must leave every snapshot reading the values it was taken with.
func TestRollbackLeavesSnapshotsIntact(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null, b varchar(5) null)")
	mustExec(t, s, "insert t values (1, 'x') insert t values (2, 'y')")
	tbl, err := s.resolveTable(sqlparse.ON("t"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() (rows, copies []sqltypes.Row) {
		rows = tbl.Rows()
		for _, r := range rows {
			copies = append(copies, r.Clone())
		}
		return rows, copies
	}
	same := func(what string, got, want []sqltypes.Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	before, wantBefore := snapshot()
	mustExec(t, s, "begin tran update t set a = a + 10 delete t where b = 'x' insert t values (3, 'z')")
	inside, wantInside := snapshot()
	mustExec(t, s, "update t set b = 'w'")
	mustExec(t, s, "rollback")
	same("pre-transaction snapshot", before, wantBefore)
	same("in-transaction snapshot", inside, wantInside)
	same("table after rollback", tbl.Rows(), wantBefore)
}
