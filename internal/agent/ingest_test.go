package agent

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDeliverBatchMultiLine: one datagram carrying several newline-separated
// notifications — for two independent events, plus a malformed line, a
// blank line and a line of binary bytes — must deliver every well-formed
// occurrence and count the two bad lines dropped. The pooled and the
// synchronous ingest paths share one decode, so both must agree exactly.
func TestDeliverBatchMultiLine(t *testing.T) {
	stk, stkTbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	aud, audTbl := "sentineldb.sharma.addAud", "sentineldb.sharma.audit"
	datagram := strings.Join([]string{
		notifMsg(stk, stkTbl, "insert", 1),
		notifMsg(aud, audTbl, "insert", 1),
		"ECA1|not|enough", // malformed: dropped, not fatal to the batch
		"",                // blank lines are ignored
		// The head of a frame in the retired binary batch format: one
		// more malformed line, not a second wire format.
		"ECB1\x02\x00\x07db.u.ev\x08db.u.tbl\x06insert\x01",
		notifMsg(stk, stkTbl, "insert", 2),
		"", // a trailing newline
	}, "\n")
	for _, tc := range []struct {
		name    string
		workers int
		pooled  bool
	}{
		{"pooled", 0, true},
		{"synchronous", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newChaosRig(t, nil, func(c *Config) { c.IngestWorkers = tc.workers })
			if pooled := r.agent.ingestPool != nil; pooled != tc.pooled {
				t.Fatalf("ingest pool on = %v, want %v", pooled, tc.pooled)
			}
			cs := r.session(t, "sharma", "sentineldb")
			if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'x'"); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.Exec("create trigger t2 on audit for insert event addAud as print 'y'"); err != nil {
				t.Fatal(err)
			}
			r.agent.DeliverBatch(datagram)
			r.agent.WaitIngest()
			r.agent.WaitActions()

			var got []string
			for i := 0; i < 3; i++ {
				res := waitAction(t, r.agent)
				if res.Err != nil {
					t.Fatalf("action %d: %v", i, res.Err)
				}
				c := res.Occ.Constituents[0]
				got = append(got, fmt.Sprintf("%s:%d", c.Event, c.VNo))
			}
			want := map[string]bool{stk + ":1": true, stk + ":2": true, aud + ":1": true}
			for _, g := range got {
				if !want[g] {
					t.Errorf("unexpected occurrence %s", g)
				}
				delete(want, g)
			}
			for miss := range want {
				t.Errorf("missing occurrence %s", miss)
			}

			st := r.agent.Stats()
			if st.NotificationsReceived != 5 {
				t.Errorf("NotificationsReceived = %d, want 5", st.NotificationsReceived)
			}
			if st.NotificationsDropped != 2 {
				t.Errorf("NotificationsDropped = %d, want 2", st.NotificationsDropped)
			}
		})
	}
}

// TestDeliverBatchSynchronousWhenDisabled: IngestWorkers -1 removes the
// pool; DeliverBatch must behave exactly like repeated Deliver calls.
func TestDeliverBatchSynchronousWhenDisabled(t *testing.T) {
	r := newChaosRig(t, nil, func(c *Config) { c.IngestWorkers = -1 })
	if r.agent.ingestPool != nil {
		t.Fatal("IngestWorkers = -1 must disable the pool")
	}
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	ev, tbl := "sentineldb.sharma.addStk", "sentineldb.sharma.stock"
	r.agent.DeliverBatch(notifMsg(ev, tbl, "insert", 1) + "\n" + notifMsg(ev, tbl, "insert", 2))
	// Synchronous: by return, both occurrences are in the LED.
	for i := 1; i <= 2; i++ {
		res := waitAction(t, r.agent)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if vno := res.Occ.Constituents[0].VNo; vno != i {
			t.Errorf("occurrence %d has vno %d", i, vno)
		}
	}
}

// TestDeliverBatchConcurrentOrdering: many goroutines batch-delivering to
// independent events must neither lose nor duplicate occurrences, and each
// event's vNo stream must stay gap-free (per-shard FIFO routing).
func TestDeliverBatchConcurrentOrdering(t *testing.T) {
	r := newChaosRig(t, nil, func(c *Config) { c.IngestWorkers = 4 })
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t1 on stock for insert event addStk as print 'x'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Exec("create trigger t2 on audit for insert event addAud as print 'y'"); err != nil {
		t.Fatal(err)
	}
	events := []struct{ ev, tbl string }{
		{"sentineldb.sharma.addStk", "sentineldb.sharma.stock"},
		{"sentineldb.sharma.addAud", "sentineldb.sharma.audit"},
	}
	const perEvent = 50
	var wg sync.WaitGroup
	for _, e := range events {
		wg.Add(1)
		go func(ev, tbl string) {
			defer wg.Done()
			// Two notifications per datagram: the batched wire format.
			for v := 1; v <= perEvent; v += 2 {
				r.agent.DeliverBatch(
					notifMsg(ev, tbl, "insert", v) + "\n" + notifMsg(ev, tbl, "insert", v+1))
			}
		}(e.ev, e.tbl)
	}
	wg.Wait()
	r.agent.WaitIngest()
	r.agent.WaitActions()

	st := r.agent.Stats()
	if want := uint64(len(events) * perEvent); st.NotificationsDelivered != want {
		t.Errorf("NotificationsDelivered = %d, want %d", st.NotificationsDelivered, want)
	}
	if st.GapsDetected != 0 {
		t.Errorf("GapsDetected = %d, want 0 (per-event FIFO should hold)", st.GapsDetected)
	}
	if st.NotificationsDuplicate != 0 {
		t.Errorf("NotificationsDuplicate = %d, want 0", st.NotificationsDuplicate)
	}
}

// TestIngestMetricsExposed: the per-worker queue-depth gauge vector and the
// worker-count gauge must appear on /metrics.
func TestIngestMetricsExposed(t *testing.T) {
	r := newChaosRig(t, nil, func(c *Config) { c.IngestWorkers = 2 })
	var b strings.Builder
	r.agent.Metrics().WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `eca_ingest_queue_depth{worker="0"}`) ||
		!strings.Contains(out, `eca_ingest_queue_depth{worker="1"}`) {
		t.Errorf("per-worker depth gauges missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, "eca_ingest_workers 2") {
		t.Errorf("eca_ingest_workers missing from exposition")
	}
}
