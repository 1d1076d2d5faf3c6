package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// refRunSelect is the reference for runSelect: the nested-loop evaluator
// the engine used before column binding and predicate pushdown. It forms
// the full FROM product, evaluates the whole WHERE on every combination,
// and resolves every column reference by name on every row.
func (s *Session) refRunSelect(st *sqlparse.Select) (*sqltypes.ResultSet, error) {
	if len(st.From) == 0 {
		return s.selectWithoutFrom(st)
	}
	frames := make([]*frame, len(st.From))
	sources := make([][]sqltypes.Row, len(st.From))
	lens := make([]int, len(st.From))
	empty := false
	for i, ref := range st.From {
		tbl, err := s.resolveTable(ref.Name)
		if err != nil {
			return nil, err
		}
		frames[i] = newFrame(ref, tbl.Schema(), s.db)
		sources[i] = tbl.Rows()
		lens[i] = len(sources[i])
		empty = empty || lens[i] == 0
	}
	if _, err := bindSelect(st, frames); err != nil {
		return nil, err
	}
	sc := &scope{frames: frames} // no slots: resolve by name per row
	var matched []sourceRow
	idx := make([]int, len(sources))
	for !empty {
		for i := range frames {
			frames[i].row = sources[i][idx[i]]
		}
		ok, err := s.truthy(st.Where, sc)
		if err != nil {
			return nil, err
		}
		if ok {
			sr := make(sourceRow, len(sources))
			for i := range sources {
				sr[i] = sources[i][idx[i]]
			}
			matched = append(matched, sr)
		}
		if !advance(idx, lens) {
			break
		}
	}
	if len(st.GroupBy) > 0 || hasAggregates(st.Items) || hasAggregateExpr(st.Having) {
		return s.selectGrouped(st, sc, matched)
	}
	return s.selectPlain(st, sc, matched)
}

// refExec runs a SELECT or INSERT ... SELECT through refRunSelect.
func (s *Session) refExec(stmt sqlparse.Statement) (*sqltypes.ResultSet, error) {
	switch st := stmt.(type) {
	case *sqlparse.Select:
		return s.refRunSelect(st)
	case *sqlparse.Insert:
		tbl, err := s.resolveTable(st.Table)
		if err != nil {
			return nil, err
		}
		rs, err := s.refRunSelect(st.Select)
		if err != nil {
			return nil, err
		}
		var rows []sqltypes.Row
		for _, r := range rs.Rows {
			full, err := arrangeRow(tbl.Schema(), st.Columns, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
		if err := tbl.InsertMany(rows); err != nil {
			return nil, err
		}
		return &sqltypes.ResultSet{RowsAffected: len(rows)}, nil
	}
	return nil, fmt.Errorf("refExec: unsupported statement %T", stmt)
}

// diffTables is the differential fixture: int, character and float
// columns, a column name (a, b) shared between tables so unqualified
// references can be ambiguous, and NULLs everywhere.
var diffTables = []struct {
	name, ddl string
	cols      []string
	kinds     string // one letter per column: i(nt), s(tring), f(loat)
}{
	{"t1", "create table t1 (a int null, b varchar(10) null, c float null)", []string{"a", "b", "c"}, "isf"},
	{"t2", "create table t2 (a int null, d char(4) null, e float null)", []string{"a", "d", "e"}, "isf"},
	{"t3", "create table t3 (b varchar(10) null, f int null)", []string{"b", "f"}, "si"},
}

func diffLiteral(rng *rand.Rand, kind byte) string {
	if rng.Intn(6) == 0 {
		return "null"
	}
	switch kind {
	case 'i':
		return fmt.Sprint(rng.Intn(4))
	case 'f':
		return []string{"0.5", "1.0", "2.0", "3.5"}[rng.Intn(4)]
	default:
		return []string{"'1'", "'2'", "'x'", "'ab'", "''"}[rng.Intn(5)]
	}
}

// diffFixture returns a script creating the fixture tables with 0-5
// random rows each, plus the INSERT target sink.
func diffFixture(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("create database db\nGO\nuse db\nGO\n")
	b.WriteString("create table sink (x varchar(20) null, y varchar(20) null, z varchar(20) null)\n")
	for _, tb := range diffTables {
		b.WriteString(tb.ddl + "\n")
		for n := rng.Intn(6); n > 0; n-- {
			vals := make([]string, len(tb.kinds))
			for i := range vals {
				vals[i] = diffLiteral(rng, tb.kinds[i])
			}
			fmt.Fprintf(&b, "insert %s values (%s)\n", tb.name, strings.Join(vals, ", "))
		}
	}
	return b.String()
}

// diffGen builds random statements over 1-3 FROM entries in the shapes of
// the sqlparse property corpus: comparisons, LIKE, IS NULL, IN lists,
// AND/OR/NOT, arithmetic and function calls, over qualified and
// unqualified column references and literals.
type diffGen struct {
	rng    *rand.Rand
	tables []int    // diffTables index per FROM entry
	quals  []string // the name each FROM entry is referenced by
	// reverse emits WHERE conjuncts in reverse order, so one random
	// statement can be compared in two conjunct orders.
	reverse bool
}

func newDiffGen(rng *rand.Rand) *diffGen {
	g := &diffGen{rng: rng}
	n := 1 + rng.Intn(3)
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		t := rng.Intn(len(diffTables))
		q := diffTables[t].name
		if used[t] || rng.Intn(3) == 0 {
			q = fmt.Sprintf("x%d", i) // a repeated table needs an alias
		}
		used[t] = true
		g.tables = append(g.tables, t)
		g.quals = append(g.quals, q)
	}
	return g
}

func (g *diffGen) from() string {
	parts := make([]string, len(g.tables))
	for i, t := range g.tables {
		parts[i] = diffTables[t].name
		if g.quals[i] != diffTables[t].name {
			parts[i] += " " + g.quals[i]
		}
	}
	return strings.Join(parts, ", ")
}

// column returns a column reference and its kind. A few references do
// not resolve, to keep the bind errors in the mix.
func (g *diffGen) column() (string, byte) {
	switch g.rng.Intn(80) {
	case 0:
		return "nosuch", 'i'
	case 1:
		return "q9.a", 'i'
	case 2:
		return g.quals[0] + ".f1", 'i'
	}
	fi := g.rng.Intn(len(g.tables))
	tb := diffTables[g.tables[fi]]
	ci := g.rng.Intn(len(tb.cols))
	if g.rng.Intn(5) == 0 {
		return tb.cols[ci], tb.kinds[ci] // unqualified: may be ambiguous
	}
	return g.quals[fi] + "." + tb.cols[ci], tb.kinds[ci]
}

func (g *diffGen) operand() string {
	if g.rng.Intn(5) < 3 {
		c, _ := g.column()
		return c
	}
	return diffLiteral(g.rng, "isf"[g.rng.Intn(3)])
}

// failing returns a predicate that errors on some rows: arithmetic or
// negation on a character value, division by zero, an undeclared
// variable, or a function over the wrong type.
func (g *diffGen) failing() string {
	c, _ := g.column()
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s * 2 > 1", c)
	case 1:
		return fmt.Sprintf("%s / 0 = 1", c)
	case 2:
		return "@undeclared = 1"
	case 3:
		return fmt.Sprintf("-%s < 0", c)
	default:
		return fmt.Sprintf("abs(%s) = 1", c)
	}
}

func (g *diffGen) pred(depth int) string {
	if depth > 0 {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("(%s or %s)", g.pred(depth-1), g.pred(depth-1))
		case 1:
			return fmt.Sprintf("(%s and %s)", g.pred(depth-1), g.pred(depth-1))
		case 2:
			return fmt.Sprintf("not (%s)", g.pred(depth-1))
		}
	}
	switch g.rng.Intn(16) {
	case 0:
		return g.failing()
	case 1:
		return fmt.Sprintf("%s like '%s'", g.operand(), []string{"x%", "%1", "_", "a%"}[g.rng.Intn(4)])
	case 2:
		neg := []string{"", " not"}[g.rng.Intn(2)]
		return fmt.Sprintf("%s is%s null", g.operand(), neg)
	case 3:
		neg := []string{"", " not"}[g.rng.Intn(2)]
		list := make([]string, 1+g.rng.Intn(3))
		for i := range list {
			list[i] = g.operand()
		}
		return fmt.Sprintf("%s%s in (%s)", g.operand(), neg, strings.Join(list, ", "))
	default:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[g.rng.Intn(6)]
		return fmt.Sprintf("%s %s %s", g.operand(), op, g.operand())
	}
}

// where returns zero to four conjuncts.
func (g *diffGen) where() string {
	n := g.rng.Intn(5)
	if n == 0 {
		return ""
	}
	conj := make([]string, n)
	for i := range conj {
		conj[i] = g.pred(g.rng.Intn(3))
	}
	if g.reverse {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			conj[i], conj[j] = conj[j], conj[i]
		}
	}
	return " where " + strings.Join(conj, " and ")
}

func (g *diffGen) value() string {
	switch g.rng.Intn(6) {
	case 0:
		c, _ := g.column()
		return c + " + 1"
	case 1:
		return diffLiteral(g.rng, "isf"[g.rng.Intn(3)])
	default:
		c, _ := g.column()
		return c
	}
}

func (g *diffGen) selectStmt() string {
	var items, tail string
	switch g.rng.Intn(10) {
	case 0, 1:
		items = "*"
	case 2:
		items = g.quals[g.rng.Intn(len(g.quals))] + ".*"
	case 3:
		c, _ := g.column()
		items = fmt.Sprintf("%s, count(*)", c)
		tail = " group by " + c
	case 4:
		c, _ := g.column()
		items = fmt.Sprintf("count(*), max(%s)", c)
	default:
		parts := make([]string, 1+g.rng.Intn(3))
		for i := range parts {
			parts[i] = g.value()
			if g.rng.Intn(4) == 0 {
				parts[i] += fmt.Sprintf(" as v%d", i)
			}
		}
		items = strings.Join(parts, ", ")
		if g.rng.Intn(3) == 0 {
			c, _ := g.column()
			tail = " order by " + c + []string{"", " desc"}[g.rng.Intn(2)]
		}
	}
	distinct := ""
	if g.rng.Intn(8) == 0 {
		distinct = "distinct "
	}
	return fmt.Sprintf("select %s%s from %s%s%s", distinct, items, g.from(), g.where(), tail)
}

func (g *diffGen) statement() string {
	if g.rng.Intn(4) == 0 {
		return fmt.Sprintf("insert sink select %s, %s, %s from %s%s",
			g.value(), g.value(), g.value(), g.from(), g.where())
	}
	return g.selectStmt()
}

// diffSessions builds two engines holding the same fixture.
func diffSessions(tb testing.TB, fixture string) (got, ref *Session) {
	tb.Helper()
	mk := func() *Session {
		eng := New(catalog.New())
		eng.SetNotifier(nil)
		s := eng.NewSession("sharma")
		if _, err := s.ExecScript(fixture); err != nil {
			tb.Fatalf("fixture: %v", err)
		}
		return s
	}
	return mk(), mk()
}

// diffOutcome is what a statement produced: an error, or its rows (the
// sink's contents after an INSERT).
type diffOutcome struct {
	err  error
	rows []sqltypes.Row
}

func runDiff(s *Session, stmt sqlparse.Statement, exec func(sqlparse.Statement) (*sqltypes.ResultSet, error)) diffOutcome {
	rs, err := exec(stmt)
	if err != nil {
		return diffOutcome{err: err}
	}
	if _, ok := stmt.(*sqlparse.Insert); ok {
		sink, err := s.resolveTable(sqlparse.ON("sink"))
		if err != nil {
			return diffOutcome{err: err}
		}
		return diffOutcome{rows: sink.Rows()}
	}
	return diffOutcome{rows: rs.Rows}
}

// checkPushdown runs sql through the engine and through refExec, each on
// its own copy of fixture, and reports any difference in rows, row order
// or error. It returns false when sql is not a statement it compares.
func checkPushdown(t *testing.T, fixture, sql string) (compared bool, out diffOutcome) {
	stmts, err := sqlparse.ParseBatch(sql)
	if err != nil || len(stmts) != 1 {
		return false, out
	}
	var sel *sqlparse.Select
	switch st := stmts[0].(type) {
	case *sqlparse.Select:
		if st.Into != nil {
			return false, out
		}
		sel = st
	case *sqlparse.Insert:
		if st.Select == nil || !strings.EqualFold(st.Table.String(), "sink") {
			return false, out
		}
		sel = st.Select
	default:
		return false, out
	}
	if len(sel.From) > 3 {
		return false, out // the reference forms the full product: keep it small
	}
	got, ref := diffSessions(t, fixture)
	g := runDiff(got, stmts[0], got.ExecStmt)
	r := runDiff(ref, stmts[0], ref.refExec)
	if (g.err == nil) != (r.err == nil) || (g.err != nil && g.err.Error() != r.err.Error()) {
		t.Fatalf("%s\nerror: engine %v, reference %v", sql, g.err, r.err)
	}
	if len(g.rows) != len(r.rows) {
		t.Fatalf("%s\nengine returned %d rows, reference %d\nengine %v\nreference %v", sql, len(g.rows), len(r.rows), g.rows, r.rows)
	}
	for i := range r.rows {
		if len(g.rows[i]) != len(r.rows[i]) || !g.rows[i].Equal(r.rows[i]) {
			t.Fatalf("%s\nrow %d: engine %v, reference %v", sql, i, g.rows[i], r.rows[i])
		}
		for j := range r.rows[i] {
			if g.rows[i][j].Kind() != r.rows[i][j].Kind() {
				t.Fatalf("%s\nrow %d col %d: engine kind %v, reference %v", sql, i, j, g.rows[i][j].Kind(), r.rows[i][j].Kind())
			}
		}
	}
	return true, g
}

// pushedDown reports whether sql's WHERE took the pushdown path with at
// least one single-frame filter.
func pushedDown(t *testing.T, fixture, sql string) bool {
	stmts, err := sqlparse.ParseBatch(sql)
	if err != nil {
		return false
	}
	st, ok := stmts[0].(*sqlparse.Select)
	if !ok {
		st = stmts[0].(*sqlparse.Insert).Select
	}
	s, _ := diffSessions(t, fixture)
	frames := make([]*frame, len(st.From))
	for i, ref := range st.From {
		tbl, err := s.resolveTable(ref.Name)
		if err != nil {
			return false
		}
		frames[i] = newFrame(ref, tbl.Schema(), s.db)
	}
	sc, err := bindSelect(st, frames)
	if err != nil {
		return false
	}
	filters, _ := pushdown(st.Where, sc)
	for _, f := range filters {
		if len(f) > 0 {
			return true
		}
	}
	return false
}

// TestSelectPushdownDifferential holds the bound, pushed-down SELECT to the
// nested-loop reference over random fixtures and statements, each also
// with its WHERE conjuncts reversed: same rows in the same order, and the
// same error, or none.
func TestSelectPushdownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := 1500
	if testing.Short() {
		cases = 300
	}
	var rowsOut, errs, pushed, multi int
	for i := 0; i < cases; i++ {
		fixture := diffFixture(rng)
		seed := rng.Int63()
		g := newDiffGen(rand.New(rand.NewSource(seed)))
		sql := g.statement()
		compared, out := checkPushdown(t, fixture, sql)
		if !compared {
			t.Fatalf("generated statement not compared: %s", sql)
		}
		reversed := newDiffGen(rand.New(rand.NewSource(seed)))
		reversed.reverse = true
		checkPushdown(t, fixture, reversed.statement())
		switch {
		case out.err != nil:
			errs++
		case len(out.rows) > 0:
			rowsOut++
		}
		if pushedDown(t, fixture, sql) {
			pushed++
			if len(g.tables) > 1 {
				multi++
			}
		}
	}
	t.Logf("%d statements: %d returned rows, %d failed, %d pushed a filter down (%d in a join)",
		cases, rowsOut, errs, pushed, multi)
	// The generator must keep every path busy, or the comparison proves
	// little.
	for what, n := range map[string]int{
		"returned rows": rowsOut, "failed": errs, "pushed a filter down": pushed,
		"pushed down in a join": multi,
	} {
		if n < cases/10 {
			t.Errorf("only %d of %d statements %s", n, cases, what)
		}
	}
}

// A conjunct that can fail must stay where the nested loop evaluates it:
// moved into a source filter, it would run on rows the loop never reaches
// (behind a false conjunct, or beside an empty table) and fail a query that
// succeeds. Each case here errors in exactly one of those placements.
func TestSelectPushdownKeepsFailingConjunctsInPlace(t *testing.T) {
	fixture := "create database db\nGO\nuse db\nGO\n" +
		diffTables[0].ddl + "\n" + diffTables[1].ddl + "\n" + diffTables[2].ddl + "\n" +
		"insert t1 values (1, 'x', 1.0) insert t1 values (2, 'ab', null)\n" +
		"insert t2 values (1, '1', 2.0) insert t2 values (null, 'x', 0.5)\n"
	for _, sql := range []string{
		"select * from t1, t3 where abs(t1.b) = 1",
		"select * from t1, t3 where t1.b * 2 > 1 and t1.a = 1",
		"select * from t1, t2 where t2.a = 99 and t1.b * 2 > 1",
		"select * from t1, t2 where t1.a = 99 and -t2.d < 0",
		"select * from t1 x, t1 y where x.a = 99 and y.b / 0 = 1",
		"select * from t1, t2 where t2.a = 99 and @undeclared = 1",
		"select * from t1, t2 where t2.a = 99 and abs(t1.b) = 1",
		"select t1.a from t1, t2 where t1.a = 99 and (t2.e > 1 or t2.d * 1 = 0)",
		"insert sink select t1.a, t2.a, 1 from t1, t2 where t2.a = 99 and lower(t1.a) = 'x'",
	} {
		checkPushdown(t, fixture+"create table sink (x varchar(20) null, y varchar(20) null, z varchar(20) null)\n", sql)
	}
}

// FuzzSelectPushdown compares the engine with the nested-loop reference on
// arbitrary SELECT and INSERT ... SELECT text over a seeded fixture.
func FuzzSelectPushdown(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		f.Add(int64(i), newDiffGen(rng).statement())
	}
	f.Fuzz(func(t *testing.T, seed int64, sql string) {
		checkPushdown(t, diffFixture(rand.New(rand.NewSource(seed))), sql)
	})
}
