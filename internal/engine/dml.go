package engine

import (
	"fmt"

	"github.com/activedb/ecaagent/internal/sqlparse"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
)

func (s *Session) execInsert(st *sqlparse.Insert) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()

	var rows []sqltypes.Row
	if st.Select != nil {
		rs, err := s.runSelect(st.Select)
		if err != nil {
			return nil, err
		}
		for _, r := range rs.Rows {
			full, err := arrangeRow(schema, st.Columns, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	} else {
		for _, exprRow := range st.Values {
			vals := make(sqltypes.Row, len(exprRow))
			for i, e := range exprRow {
				v, err := s.eval(e, nil)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			full, err := arrangeRow(schema, st.Columns, vals)
			if err != nil {
				return nil, err
			}
			rows = append(rows, full)
		}
	}

	s.txnSaveTable(tbl)
	if err := tbl.InsertMany(rows); err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpInsert, rows, nil, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(rows)}, nil
}

// arrangeRow positions the supplied values according to the optional
// column list, filling unmentioned columns with NULL.
func arrangeRow(schema *sqltypes.Schema, cols []string, vals sqltypes.Row) (sqltypes.Row, error) {
	if len(cols) == 0 {
		if len(vals) != schema.Len() {
			return nil, fmt.Errorf("insert supplies %d values for %d columns", len(vals), schema.Len())
		}
		return vals, nil
	}
	if len(vals) != len(cols) {
		return nil, fmt.Errorf("insert supplies %d values for %d named columns", len(vals), len(cols))
	}
	full := make(sqltypes.Row, schema.Len())
	for i := range full {
		full[i] = sqltypes.Null
	}
	for i, c := range cols {
		ci := schema.Index(c)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %q in insert list", c)
		}
		full[ci] = vals[i]
	}
	return full, nil
}

func (s *Session) execUpdate(st *sqlparse.Update) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	fr := newFrame(sqlparse.TableRef{Name: st.Table}, schema, s.db)
	sc := newScope([]*frame{fr})
	// Unresolvable columns are reported when a row evaluates them, so an
	// UPDATE matching no rows still succeeds, as it always has.
	_ = sc.bind(st.Where)
	for _, a := range st.Set {
		_ = sc.bind(a.Value)
	}

	// Validate SET column names up front.
	setIdx := make([]int, len(st.Set))
	for i, a := range st.Set {
		ci := schema.Index(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %q in update", a.Column)
		}
		setIdx[i] = ci
	}

	s.txnSaveTable(tbl)
	old, updated, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) {
			fr.row = r
			return s.truthy(st.Where, sc)
		},
		func(r sqltypes.Row) (sqltypes.Row, error) {
			fr.row = r.Clone() // assignments see pre-update values
			out := r
			for i, a := range st.Set {
				v, err := s.eval(a.Value, sc)
				if err != nil {
					return nil, err
				}
				out[setIdx[i]] = v
			}
			return out, nil
		},
	)
	if err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpUpdate, updated, old, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(updated)}, nil
}

func (s *Session) execDelete(st *sqlparse.Delete) (*sqltypes.ResultSet, error) {
	tbl, err := s.resolveTable(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	fr := newFrame(sqlparse.TableRef{Name: st.Table}, schema, s.db)
	sc := newScope([]*frame{fr})
	_ = sc.bind(st.Where) // reported per row, as in execUpdate

	s.txnSaveTable(tbl)
	removed, err := tbl.Delete(func(r sqltypes.Row) (bool, error) {
		fr.row = r
		return s.truthy(st.Where, sc)
	})
	if err != nil {
		return nil, err
	}
	if err := s.fireTrigger(st.Table, sqlparse.OpDelete, nil, removed, schema); err != nil {
		return nil, err
	}
	return &sqltypes.ResultSet{RowsAffected: len(removed)}, nil
}

// fireTrigger runs the native trigger for (table, op), if one exists and
// any rows were affected. The trigger body sees the inserted/deleted
// pseudo-tables; its output is appended to the session's pending extra
// results, which ExecBatch interleaves after the triggering statement —
// the order a real client would observe on the wire.
func (s *Session) fireTrigger(tableName sqlparse.ObjectName, op sqlparse.TriggerOp, inserted, deleted []sqltypes.Row, schema *sqltypes.Schema) error {
	if len(inserted) == 0 && len(deleted) == 0 {
		return nil
	}
	db, err := s.database(tableName.Database())
	if err != nil {
		return err
	}
	tr, ok := db.TriggerFor(tableName.Owner(), tableName.Name(), s.user, op)
	if !ok {
		return nil
	}
	if len(s.trigCtx) >= maxTriggerDepth {
		return fmt.Errorf("trigger nesting exceeds %d levels", maxTriggerDepth)
	}

	nullable := schema.Clone()
	for i := range nullable.Columns {
		nullable.Columns[i].Nullable = true
	}
	ctx := &triggerContext{}
	if inserted != nil {
		ctx.inserted = storage.NewTable(nullable)
		if err := ctx.inserted.ReplaceAll(inserted); err != nil {
			return fmt.Errorf("building inserted pseudo-table: %v", err)
		}
	}
	if deleted != nil {
		ctx.deleted = storage.NewTable(nullable)
		if err := ctx.deleted.ReplaceAll(deleted); err != nil {
			return fmt.Errorf("building deleted pseudo-table: %v", err)
		}
	}

	s.trigCtx = append(s.trigCtx, ctx)
	defer func() { s.trigCtx = s.trigCtx[:len(s.trigCtx)-1] }()

	for _, st := range tr.Body {
		rs, err := s.ExecStmt(st)
		if rs != nil && (rs.Schema != nil || len(rs.Messages) > 0) {
			s.extra = append(s.extra, rs)
		}
		if err != nil {
			return fmt.Errorf("trigger %s: %v", tr.Name, err)
		}
	}
	return nil
}
