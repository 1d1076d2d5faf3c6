package engine

import (
	"fmt"
	"testing"
)

func TestRuntimeNotAndNegation(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (2) insert t values (null)")
	rows := lastRows(mustExec(t, s, "select a from t where not a = 1"))
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("NOT comparison: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select -a from t where a = 2"))
	if rows[0][0].Int() != -2 {
		t.Errorf("unary minus on column: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select a from t where not (a is null)"))
	if len(rows) != 2 {
		t.Errorf("NOT over IS NULL: %v", rows)
	}
	// NOT of unknown stays unknown: no rows where NOT(NULL = 1).
	rows = lastRows(mustExec(t, s, "select a from t where a is null and not a = 1"))
	if len(rows) != 0 {
		t.Errorf("NOT unknown leaked rows: %v", rows)
	}
	// Unary minus on float and on NULL.
	rows = lastRows(mustExec(t, s, "select -2.5, -(a - a) from t where a = 1"))
	if rows[0][0].Float() != -2.5 || rows[0][1].Int() != 0 {
		t.Errorf("unary minus forms: %v", rows)
	}
	if _, err := s.ExecScript("select -'abc'"); err == nil {
		t.Error("negating a string succeeded")
	}
}

func TestSessionAccessors(t *testing.T) {
	s, _ := newTestSession(t)
	if s.User() != "sharma" || s.DatabaseName() != "db" {
		t.Errorf("accessors: %q %q", s.User(), s.DatabaseName())
	}
	if s.eng.Catalog() == nil {
		t.Error("Catalog() nil")
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (2)")
	rows := lastRows(mustExec(t, s, "select sum(a) from t having count(*) > 1"))
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("having over global aggregate: %v", rows)
	}
	rows = lastRows(mustExec(t, s, "select sum(a) from t having count(*) > 5"))
	if len(rows) != 0 {
		t.Errorf("failing having kept row: %v", rows)
	}
}

func TestUnaryInAggregateAndNestedFunc(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table t (a int null)")
	mustExec(t, s, "insert t values (1) insert t values (2)")
	rows := lastRows(mustExec(t, s, "select -sum(a), abs(-sum(a)) from t"))
	if rows[0][0].Int() != -3 || rows[0][1].Int() != 3 {
		t.Errorf("aggregate in expressions: %v", rows)
	}
}

func TestFromLessSelectRejectsClauses(t *testing.T) {
	s, _ := newTestSession(t)
	for _, bad := range []string{
		"select 1 where 1 = 1",
		"select 1 order by col1",
	} {
		if _, err := s.ExecScript(bad); err == nil {
			t.Errorf("%q succeeded", bad)
		}
	}
}

// The bind pass is the only column resolver: every SELECT clause reports
// its four resolution errors whether or not any row is read, WHERE first.
func TestColumnResolverMessages(t *testing.T) {
	s, _ := newTestSession(t)
	mustExec(t, s, "create table full1 (a int null, b int null)")
	mustExec(t, s, "create table empty1 (a int null, c int null)")
	mustExec(t, s, "insert full1 values (1, 2)")
	for _, tc := range []struct{ sql, want string }{
		{"select nosuch from %s", `unknown column "nosuch"`},
		{"select a from %s where nosuch = 1", `unknown column "nosuch"`},
		{"select count(*) from %s group by nosuch", `unknown column "nosuch"`},
		{"select count(*) from %s having max(nosuch) > 1", `unknown column "nosuch"`},
		{"select a from %s x, full1 y", `ambiguous column "a"`},
		{"select x.a from %s x, full1 y where a = 1", `ambiguous column "a"`},
		{"select q.a from %s", `unknown table or alias "q"`},
		{"select a from %s where db.sharma.q.a = 1", `unknown table or alias "db.sharma.q"`},
		{"select x.nosuch from %s x", "column nosuch not found in x"},
		{"select a from %s x where x.nosuch = 1", "column nosuch not found in x"},
		{"select nosuch1 from %s where nosuch2 = 1", `unknown column "nosuch2"`},
	} {
		for _, table := range []string{"full1", "empty1"} {
			sql := fmt.Sprintf(tc.sql, table)
			_, err := s.ExecScript(sql)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: err = %v, want %s", sql, err, tc.want)
			}
		}
	}
	// Bound and per-row resolution agree on what a qualifier may name.
	for _, sql := range []string{
		"select full1.a, sharma.full1.b, db.sharma.full1.a from sharma.full1",
		"select x.a, b from full1 x where x.b = 2 and a = 1",
	} {
		if rows := lastRows(mustExec(t, s, sql)); len(rows) != 1 {
			t.Errorf("%s: %d rows", sql, len(rows))
		}
	}
}
