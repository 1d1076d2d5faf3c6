package agent

import (
	"fmt"
	"net"
	"strings"
	"sync"

	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/obs"
	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ActionParam is the Go analog of the paper's NotiStr structure
// (Figure 13): everything the action interface needs to invoke a rule's
// stored procedure in the SQL server when the LED detects its event.
type ActionParam struct {
	StoreProc string      // stored procedure to execute
	EventName string      // detected event
	Context   led.Context // parameter context to materialize
	DB        string      // database holding the procedure and sysContext
}

// ActionResult reports one completed rule action; the agent publishes
// these on its ActionDone channel so applications (and tests) can observe
// asynchronous rule executions.
type ActionResult struct {
	Rule     string
	Event    string
	Occ      *led.Occ
	Messages []string
	Results  []*sqltypes.ResultSet
	Err      error
}

// actionHandler implements Figure 16: each detected occurrence invokes the
// rule's stored procedure through its own upstream connection, taken from
// a small pool. The pool never decides order — the agent's per-table lanes
// (Agent.takeLanes) do that before an action asks for a connection — it
// only bounds how many actions execute at once.
type actionHandler struct {
	// mk builds the i-th pooled upstream; it dials on its first Exec.
	mk    func(i int) Upstream
	limit int
	conns *obs.Gauge // upstreams built so far (eca_action_conns)

	mu     sync.Mutex
	cond   sync.Cond  // signalled on release and close
	all    []Upstream // every upstream built, for close; guarded by mu
	idle   []Upstream // stack, so the warmest connection is reused first; guarded by mu
	closed bool       // guarded by mu
}

// newActionHandler builds a pool of at most limit upstreams, created on
// demand through mk (the agent hands it retry-wrapped connections so a
// broken connection is redialed instead of disabling rule actions).
func newActionHandler(mk func(i int) Upstream, limit int, conns *obs.Gauge) *actionHandler {
	h := &actionHandler{mk: mk, limit: limit, conns: conns}
	h.cond.L = &h.mu
	return h
}

// acquire takes an idle upstream, builds a new one while the pool is
// under its limit, or waits for a release. It fails once the pool closed.
func (h *actionHandler) acquire() (Upstream, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.closed {
			return nil, net.ErrClosed
		}
		if n := len(h.idle); n > 0 {
			up := h.idle[n-1]
			h.idle = h.idle[:n-1]
			return up, nil
		}
		if len(h.all) < h.limit {
			up := h.mk(len(h.all))
			h.all = append(h.all, up)
			h.conns.Set(int64(len(h.all)))
			return up, nil
		}
		h.cond.Wait()
	}
}

func (h *actionHandler) release(up Upstream) {
	h.mu.Lock()
	h.idle = append(h.idle, up)
	h.mu.Unlock()
	h.cond.Signal()
}

// close closes every pooled upstream, including ones an abandoned action
// is still executing on, and fails pending and future acquires.
func (h *actionHandler) close() {
	h.mu.Lock()
	h.closed = true
	all := h.all
	h.mu.Unlock()
	h.cond.Broadcast()
	for _, up := range all {
		up.Close()
	}
}

// invoke materializes the occurrence's parameter context into sysContext
// (§5.6's four steps) and executes the action procedure on up. It returns
// the informational messages the action produced.
//
// The caller (Agent.runAction) holds the action's lane tickets, so no
// other action touching the same tables — the same sysContext rows and
// _tmp tables — runs between the populate and the execute.
func (h *actionHandler) invoke(up Upstream, p ActionParam, occ *led.Occ) ([]*sqltypes.ResultSet, []string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "use %s\n", p.DB)

	// Steps 2-3 of §5.6: derive the (tableName, context, vNo) list from
	// the LED occurrence and replace the previous occurrence's tuples.
	// sysContext rows are keyed by the *shadow* table (stock_inserted /
	// stock_deleted) rather than the base table the paper's Figure 14
	// shows: each event keeps its own vNo counter, so rows keyed only by
	// base table would cross-match occurrences of different events on the
	// same table. EXPERIMENTS.md records this correctness fix.
	type key struct {
		table string
		vno   int
	}
	seen := make(map[key]bool)
	tableSeen := make(map[string]bool)
	var tables []string // first-seen order: the batch must be deterministic
	var inserts []string
	record := func(shadow string, vno int) {
		k := key{table: shadow, vno: vno}
		if seen[k] {
			return
		}
		seen[k] = true
		if !tableSeen[shadow] {
			tableSeen[shadow] = true
			tables = append(tables, shadow)
		}
		inserts = append(inserts, fmt.Sprintf("insert %s values ('%s', '%s', %d)",
			TabContext, sqlEscape(shadow), p.Context, vno))
	}
	for _, c := range occ.Constituents {
		if c.Table == "" {
			continue // temporal/tick constituents carry no tuples
		}
		switch c.Op {
		case "insert":
			record(shadowTableName(c.Table, "inserted"), c.VNo)
		case "delete":
			record(shadowTableName(c.Table, "deleted"), c.VNo)
		case "update":
			record(shadowTableName(c.Table, "inserted"), c.VNo)
			record(shadowTableName(c.Table, "deleted"), c.VNo)
		}
	}
	for _, t := range tables {
		fmt.Fprintf(&b, "delete %s where tableName = '%s' and context = '%s'\n",
			TabContext, sqlEscape(t), p.Context)
	}
	for _, ins := range inserts {
		b.WriteString(ins)
		b.WriteByte('\n')
	}
	// Step 4: the procedure joins sysContext with the shadow tables and
	// runs the user action.
	fmt.Fprintf(&b, "execute %s", p.StoreProc)

	results, err := up.Exec(b.String())
	var msgs []string
	for _, rs := range results {
		msgs = append(msgs, rs.Messages...)
	}
	return results, msgs, err
}

// deadLetterQueue is the bounded park for rule actions that failed
// terminally: the upstream's retries were exhausted, or the server
// answered with an error. When full, the oldest entry is evicted — recent
// failures are worth more to an operator than ancient ones.
type deadLetterQueue struct {
	mu    sync.Mutex
	buf   []ActionResult
	limit int
}

func (q *deadLetterQueue) push(res ActionResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.limit <= 0 {
		return
	}
	if len(q.buf) >= q.limit {
		q.buf = append(q.buf[:0], q.buf[len(q.buf)-q.limit+1:]...)
	}
	q.buf = append(q.buf, res)
}

// snapshot copies the queue, oldest first.
func (q *deadLetterQueue) snapshot() []ActionResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]ActionResult(nil), q.buf...)
}
