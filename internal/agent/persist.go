package agent

import (
	"fmt"
	"strings"
	"time"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// persistentManager implements Figure 8: a dedicated, privileged upstream
// connection that maintains the agent's system tables, persists every
// event and rule as it is created, and restores the whole rulebase when
// the agent starts.
type persistentManager struct {
	up    Upstream
	admin string
	// ensured caches which databases already have system tables.
	ensured map[string]bool
}

// newPersistentManager takes ownership of an already-built upstream (the
// agent hands it a retry-wrapped connection, so transient dial and
// connection failures are absorbed before errors reach here).
func newPersistentManager(up Upstream, admin string) (*persistentManager, error) {
	pm := &persistentManager{up: up, admin: admin, ensured: make(map[string]bool)}
	if err := execIgnoreExists(up, []string{"use master\n" + registryDDL}); err != nil {
		up.Close()
		return nil, fmt.Errorf("agent: creating registry: %w", err)
	}
	return pm, nil
}

func (pm *persistentManager) close() { pm.up.Close() }

// ensureDatabase creates the agent system tables in db (idempotent) and
// registers the database for recovery.
func (pm *persistentManager) ensureDatabase(db string) error {
	if pm.ensured[db] {
		return nil
	}
	for _, ddl := range []string{
		SysTableDDL[TabPrimitiveEvent],
		SysTableDDL[TabCompositeEvent],
		SysTableDDL[TabEcaTrigger],
		SysTableDDL[TabContext],
	} {
		if err := execIgnoreExists(pm.up, []string{"use " + db + "\n" + ddl}); err != nil {
			return fmt.Errorf("agent: creating system tables in %s: %w", db, err)
		}
	}
	rs, err := pm.up.Exec(fmt.Sprintf(
		"use master select dbName from %s where dbName = '%s'", TabRegistry, sqlEscape(db)))
	if err != nil {
		return err
	}
	if countRows(rs) == 0 {
		if _, err := pm.up.Exec(fmt.Sprintf(
			"use master insert %s values ('%s')", TabRegistry, sqlEscape(db))); err != nil {
			return err
		}
	}
	pm.ensured[db] = true
	return nil
}

// savePrimitive records a primitive event (Figure 5 row). vNo starts at 0
// and is bumped by the generated native trigger on every occurrence.
func (pm *persistentManager) savePrimitive(db, user, event, table, op string) error {
	sql := fmt.Sprintf(
		"use %s insert %s values ('%s', '%s', '%s', '%s', '%s', getdate(), 0)",
		db, TabPrimitiveEvent, sqlEscape(db), sqlEscape(user), sqlEscape(event),
		sqlEscape(table), sqlEscape(op))
	_, err := pm.up.Exec(sql)
	return err
}

// saveComposite records a composite event (Figure 6 row).
func (pm *persistentManager) saveComposite(db, user, event, expr string, coupling led.Coupling, ctx led.Context, priority int) error {
	sql := fmt.Sprintf(
		"use %s insert %s values ('%s', '%s', '%s', '%s', getdate(), '%s', '%s', '%d')",
		db, TabCompositeEvent, sqlEscape(db), sqlEscape(user), sqlEscape(event),
		sqlEscape(expr), coupling, ctx, priority)
	_, err := pm.up.Exec(sql)
	return err
}

// saveTrigger records an ECA trigger (Figure 7 row, with the coupling /
// context / priority extension this reproduction adds).
func (pm *persistentManager) saveTrigger(db, user, trigger, proc, event string, coupling led.Coupling, ctx led.Context, priority int) error {
	sql := fmt.Sprintf(
		"use %s insert %s values ('%s', '%s', '%s', '%s', getdate(), '%s', '%s', '%s', %d)",
		db, TabEcaTrigger, sqlEscape(db), sqlEscape(user), sqlEscape(trigger),
		sqlEscape(proc), sqlEscape(event), coupling, ctx, priority)
	_, err := pm.up.Exec(sql)
	return err
}

// deleteTrigger removes an ECA trigger row.
func (pm *persistentManager) deleteTrigger(db, trigger string) error {
	sql := fmt.Sprintf("use %s delete %s where triggerName = '%s'",
		db, TabEcaTrigger, sqlEscape(trigger))
	_, err := pm.up.Exec(sql)
	return err
}

// persistedEvent is one restored event definition.
type persistedEvent struct {
	DB, User, Name string
	Table, Op      string // primitive only
	VNo            int    // primitive only: authoritative occurrence count
	Expr           string // composite only
	At             time.Time
}

// persistedTrigger is one restored rule.
type persistedTrigger struct {
	DB, User, Name string
	Proc, Event    string
	Coupling       led.Coupling
	Context        led.Context
	Priority       int
}

// loadAll restores the agent's state: every registered database's
// primitive events, composite events and triggers, in creation order.
func (pm *persistentManager) loadAll() (prims []persistedEvent, comps []persistedEvent, trigs []persistedTrigger, err error) {
	rs, err := pm.up.Exec("use master select dbName from " + TabRegistry)
	if err != nil {
		return nil, nil, nil, err
	}
	var dbs []string
	forEachRow(rs, func(r sqltypes.Row) {
		dbs = append(dbs, r[0].AsString())
	})
	for _, db := range dbs {
		pm.ensured[db] = true

		rs, err = pm.up.Exec(fmt.Sprintf(
			"use %s select dbName, userName, eventName, tableName, operation, vNo from %s", db, TabPrimitiveEvent))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("agent: restoring primitive events from %s: %w", db, err)
		}
		forEachRow(rs, func(r sqltypes.Row) {
			vno, _ := r[5].AsInt()
			prims = append(prims, persistedEvent{
				DB: r[0].AsString(), User: r[1].AsString(), Name: r[2].AsString(),
				Table: r[3].AsString(), Op: r[4].AsString(), VNo: int(vno),
			})
		})

		rs, err = pm.up.Exec(fmt.Sprintf(
			"use %s select dbName, userName, eventName, eventDescribe from %s", db, TabCompositeEvent))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("agent: restoring composite events from %s: %w", db, err)
		}
		forEachRow(rs, func(r sqltypes.Row) {
			comps = append(comps, persistedEvent{
				DB: r[0].AsString(), User: r[1].AsString(), Name: r[2].AsString(),
				Expr: r[3].AsString(),
			})
		})

		rs, err = pm.up.Exec(fmt.Sprintf(
			"use %s select dbName, userName, triggerName, triggerProc, eventName, coupling, context, priority from %s",
			db, TabEcaTrigger))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("agent: restoring triggers from %s: %w", db, err)
		}
		var rowErr error
		forEachRow(rs, func(r sqltypes.Row) {
			coupling, err := led.ParseCoupling(strings.TrimSpace(r[5].AsString()))
			if err != nil {
				rowErr = err
				return
			}
			ctx, err := led.ParseContext(strings.TrimSpace(r[6].AsString()))
			if err != nil {
				rowErr = err
				return
			}
			prio, _ := r[7].AsInt()
			trigs = append(trigs, persistedTrigger{
				DB: r[0].AsString(), User: r[1].AsString(), Name: r[2].AsString(),
				Proc: r[3].AsString(), Event: r[4].AsString(),
				Coupling: coupling, Context: ctx, Priority: int(prio),
			})
		})
		if rowErr != nil {
			return nil, nil, nil, rowErr
		}
	}
	return prims, comps, trigs, nil
}

// exec forwards arbitrary SQL on the privileged connection (used by the
// agent's DDL installation).
func (pm *persistentManager) exec(sql string) ([]*sqltypes.ResultSet, error) {
	return pm.up.Exec(sql)
}

// actionShadows reads a rule's action procedure back with sp_helptext and
// returns the shadow tables its context prologue materializes.
func (pm *persistentManager) actionShadows(db, proc string) ([]ShadowRef, error) {
	rs, err := pm.up.Exec(fmt.Sprintf("use %s\nexec sp_helptext '%s'", db, sqlEscape(proc)))
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	for _, r := range rs {
		for _, m := range r.Messages {
			text.WriteString(m)
		}
	}
	return prologueShadows(text.String()), nil
}

func sqlEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

func countRows(rs []*sqltypes.ResultSet) int {
	n := 0
	for _, r := range rs {
		if r.Schema != nil {
			n += len(r.Rows)
		}
	}
	return n
}

func forEachRow(rs []*sqltypes.ResultSet, fn func(sqltypes.Row)) {
	for _, r := range rs {
		if r.Schema == nil {
			continue
		}
		for _, row := range r.Rows {
			fn(row)
		}
	}
}
