package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/obs"
)

// eagerClock fires every timer synchronously at scheduling time — the
// zero-backoff clock for retry-path tests.
type eagerClock struct{ now time.Time }

func (c *eagerClock) Now() time.Time { return c.now }
func (c *eagerClock) AfterFunc(d time.Duration, f func()) func() {
	f()
	return func() {}
}

func notif(event string) string { return "ECA1|" + event + "|ta|insert|1" }

// capture is a Forwarder that records delivered datagrams.
type capture struct {
	mu   sync.Mutex
	got  []string
	fail int // fail this many deliveries first
}

func (c *capture) forward(d string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail > 0 {
		c.fail--
		return errors.New("down")
	}
	c.got = append(c.got, d)
	return nil
}

func (c *capture) delivered() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.got...)
}

func newTestRouter(met *Metrics) (*Router, *capture, *capture) {
	a, b := &capture{}, &capture{}
	r := NewRouter(RouterConfig{Clock: &eagerClock{}}, met)
	r.SetMember("node-a", a.forward)
	r.SetMember("node-b", b.forward)
	return r, a, b
}

func TestRouterAffinityOverridesRing(t *testing.T) {
	r, a, b := newTestRouter(nil)
	_ = b
	// Claim every probe event for node-a regardless of where it hashes.
	events := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"}
	r.ApplyRoute("node-a", events)
	for _, ev := range events {
		if node, ok := r.Owner(ev); !ok || node != "node-a" {
			t.Fatalf("Owner(%s) = %s,%v; want node-a (affinity)", ev, node, ok)
		}
		if err := r.Route(notif(ev)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.delivered()); got != len(events) {
		t.Fatalf("node-a received %d datagrams, want %d", got, len(events))
	}
}

func TestRouterRingIsConsistent(t *testing.T) {
	r, _, _ := newTestRouter(nil)
	owners := make(map[string]string)
	for i := 0; i < 50; i++ {
		ev := fmt.Sprintf("ev%d", i)
		node, ok := r.Owner(ev)
		if !ok {
			t.Fatalf("no owner for %s", ev)
		}
		owners[ev] = node
	}
	// Same ring, same answers.
	for ev, want := range owners {
		if got, _ := r.Owner(ev); got != want {
			t.Fatalf("Owner(%s) flapped: %s then %s", ev, want, got)
		}
	}
	// Adding a third node moves only a fraction of the unclaimed keys.
	r.SetMember("node-c", (&capture{}).forward)
	moved := 0
	for ev, was := range owners {
		if got, _ := r.Owner(ev); got != was {
			if got != "node-c" {
				t.Fatalf("Owner(%s) moved %s→%s, not to the new node", ev, was, got)
			}
			moved++
		}
	}
	if moved == 0 || moved == len(owners) {
		t.Fatalf("adding a node moved %d/%d keys; consistent hashing should move some, not all", moved, len(owners))
	}
}

func TestRouterDeadOwnerFallsBackToRing(t *testing.T) {
	r, a, b := newTestRouter(nil)
	_ = a
	r.ApplyRoute("node-gone", []string{"ea"})
	node, ok := r.Owner("ea")
	if !ok || node == "node-gone" {
		t.Fatalf("Owner(ea) = %s,%v; a departed claimant must fall back to the ring", node, ok)
	}
	if err := r.Route(notif("ea")); err != nil {
		t.Fatal(err)
	}
	if len(a.delivered())+len(b.delivered()) != 1 {
		t.Fatal("datagram for a departed claimant was not delivered via the ring")
	}
}

func TestRouterBatchSplitsByOwner(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	r, a, b := newTestRouter(met)
	r.ApplyRoute("node-a", []string{"ea"})
	r.ApplyRoute("node-b", []string{"eb"})
	batch := strings.Join([]string{notif("ea"), notif("eb"), notif("ea")}, "\n")
	if err := r.Route(batch); err != nil {
		t.Fatal(err)
	}
	if got := a.delivered(); len(got) != 1 || strings.Count(got[0], "ea") != 2 {
		t.Fatalf("node-a got %v; want one two-line batch of ea", got)
	}
	if got := b.delivered(); len(got) != 1 || strings.Count(got[0], "eb") != 1 {
		t.Fatalf("node-b got %v; want one eb line", got)
	}
	if met.Routed.With("node-a").Value() != 1 || met.Routed.With("node-b").Value() != 1 {
		t.Fatal("per-node routed counters wrong")
	}
}

func TestRouterRetriesThenDelivers(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	a := &capture{fail: 2}
	r := NewRouter(RouterConfig{Clock: &eagerClock{}, Attempts: 3}, met)
	r.SetMember("node-a", a.forward)
	r.ApplyRoute("node-a", []string{"ea"})
	if err := r.Route(notif("ea")); err != nil {
		t.Fatal(err)
	}
	if len(a.delivered()) != 1 {
		t.Fatal("datagram not delivered after retries")
	}
	if met.RouteRetries.Value() != 2 {
		t.Fatalf("retries = %d, want 2", met.RouteRetries.Value())
	}
}

func TestRouterParksThenRedelivers(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	a := &capture{fail: 1 << 30} // down for good
	r := NewRouter(RouterConfig{Clock: &eagerClock{}, Attempts: 2}, met)
	r.SetMember("node-a", a.forward)
	r.ApplyRoute("node-a", []string{"ea"})
	if err := r.Route(notif("ea")); err != nil {
		t.Fatalf("parking is graceful degradation, not an error: %v", err)
	}
	if r.Parked("node-a") != 1 {
		t.Fatalf("parked = %d, want 1", r.Parked("node-a"))
	}
	// The node comes back (a promotion repointed the name); parked
	// traffic drains through the normal route path.
	a.mu.Lock()
	a.fail = 0
	a.mu.Unlock()
	if n := r.Redeliver("node-a"); n != 1 {
		t.Fatalf("redelivered %d, want 1", n)
	}
	if len(a.delivered()) != 1 {
		t.Fatal("parked datagram lost")
	}
	if r.Parked("node-a") != 0 {
		t.Fatal("parked queue not drained")
	}
}

func TestRouterBoundedParkThenDLQ(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	a := &capture{fail: 1 << 30}
	r := NewRouter(RouterConfig{Clock: &eagerClock{}, Attempts: 1, ParkLimit: 2}, met)
	r.SetMember("node-a", a.forward)
	r.ApplyRoute("node-a", []string{"ea"})
	for i := 0; i < 2; i++ {
		if err := r.Route(notif("ea")); err != nil {
			t.Fatalf("within park bound: %v", err)
		}
	}
	// Third datagram overflows the bound: backpressure error + DLQ entry,
	// never silent loss.
	err := r.Route(notif("ea"))
	if err == nil {
		t.Fatal("overflow must surface as backpressure")
	}
	if met.RouteDLQ.Value() != 1 {
		t.Fatalf("dlq counter = %d, want 1", met.RouteDLQ.Value())
	}
	dls := r.DeadLetters()
	if len(dls) != 1 || dls[0].Node != "node-a" || dls[0].Datagram != notif("ea") {
		t.Fatalf("dead letters = %+v", dls)
	}
}

func TestRouterBadLineDeadLetters(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	r, a, _ := newTestRouter(met)
	r.ApplyRoute("node-a", []string{"ea"})
	err := r.Route(notif("ea") + "\ngarbage|line")
	if err == nil {
		t.Fatal("unparseable line must surface in the route result")
	}
	if len(a.delivered()) != 1 {
		t.Fatal("good line must still be delivered")
	}
	if met.RouteBad.Value() != 1 {
		t.Fatalf("bad counter = %d, want 1", met.RouteBad.Value())
	}
	if dls := r.DeadLetters(); len(dls) != 1 || dls[0].Datagram != "garbage|line" {
		t.Fatalf("dead letters = %+v", dls)
	}
}

// A well-formed frame of the retired binary batch format (magic, count
// uint16, uvarint-prefixed event/table/op and vNo, CRC-32) carries no
// notification for the router or the agent: each of its '\n'-separated
// pieces is an unparseable line. The router dead-letters every piece,
// still forwards the text line behind the frame, and the agent, given
// the same bytes, drops exactly the pieces the router dead-lettered.
func TestRouterBinaryFrameIsUnparseable(t *testing.T) {
	frame := []byte("ECB1")
	frame = binary.LittleEndian.AppendUint16(frame, 1)
	// A 10-byte event name puts a '\n' (its length prefix) inside the frame.
	for _, f := range []string{"db.u.evt10", "db.u.ta", "insert"} {
		frame = binary.AppendUvarint(frame, uint64(len(f)))
		frame = append(frame, f...)
	}
	frame = binary.AppendUvarint(frame, 1)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	var pieces []string
	for _, p := range bytes.Split(frame, []byte("\n")) {
		if len(p) > 0 {
			pieces = append(pieces, string(p))
		}
	}
	if len(pieces) < 2 {
		t.Fatalf("frame %q should span several lines", frame)
	}
	datagram := string(frame) + "\n" + notif("ea")

	met := NewMetrics(obs.NewRegistry())
	r, a, _ := newTestRouter(met)
	r.ApplyRoute("node-a", []string{"ea"})
	if err := r.Route(datagram); err == nil {
		t.Fatal("dead-lettered frame must surface in the route result")
	}
	if got := a.delivered(); len(got) != 1 || got[0] != notif("ea") {
		t.Fatalf("delivered = %q, want only the text line", got)
	}
	if got := met.RouteBad.Value(); got != uint64(len(pieces)) {
		t.Errorf("bad counter = %d, want %d", got, len(pieces))
	}
	dls := r.DeadLetters()
	if len(dls) != len(pieces) {
		t.Fatalf("%d dead letters for %d frame pieces: %+v", len(dls), len(pieces), dls)
	}
	for i, dl := range dls {
		if dl.Datagram != pieces[i] || dl.Reason != "unparseable notification" {
			t.Errorf("dead letter %d = %+v, want piece %q as unparseable", i, dl, pieces[i])
		}
	}

	ag, err := agent.New(agent.Config{
		Dial:          agent.LocalDialer(engine.New(catalog.New())),
		NotifyAddr:    "-",
		IngestWorkers: -1,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	ag.DeliverBatchBytes([]byte(datagram))
	st := ag.Stats()
	if st.NotificationsDropped != uint64(len(pieces)) || st.NotificationsReceived != uint64(len(pieces)+1) {
		t.Errorf("agent received %d dropped %d, want %d/%d",
			st.NotificationsReceived, st.NotificationsDropped, len(pieces)+1, len(pieces))
	}
}

func TestRouterRemoveMemberReroutes(t *testing.T) {
	r, a, b := newTestRouter(nil)
	aDown := &capture{fail: 1 << 30}
	r.SetMember("node-a", aDown.forward)
	r.ApplyRoute("node-a", []string{"ea"})
	if err := r.Route(notif("ea")); err != nil {
		t.Fatal(err)
	}
	if r.Parked("node-a") != 1 {
		t.Fatal("expected the datagram parked behind the dead node")
	}
	// node-a leaves the membership: its parked traffic re-routes to the
	// survivors via the ring.
	r.RemoveMember("node-a")
	if got := len(a.delivered()) + len(b.delivered()); got != 1 {
		t.Fatalf("rerouted %d datagrams, want 1", got)
	}
}
