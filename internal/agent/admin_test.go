package agent

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/activedb/ecaagent/internal/faults"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricTotal sums every series of one family in a text exposition (a
// scalar counter is a single series; a vector sums across label values).
func metricTotal(t *testing.T, exposition, name string) float64 {
	t.Helper()
	total, found := 0.0, false
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metric %s: bad line %q", name, line)
		}
		total += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s absent from exposition", name)
	}
	return total
}

// TestAdminEndpointsUnderChaos reruns the PR-1 chaos acceptance scenario
// and then audits the observability surface: /metrics and /stats must
// agree with each other and with Stats(), the notification counters must
// balance (received = delivered + dropped + duplicate), actions must have
// run exactly once each, and the latency histograms must have observed the
// run.
func TestAdminEndpointsUnderChaos(t *testing.T) {
	inj := faults.NewInjector(faults.Cycle(
		faults.None, faults.Error, faults.None, faults.Disconnect, faults.None, faults.Hang,
	))
	r := newChaosRig(t, inj, func(cfg *Config) { cfg.ActionBuffer = 1024 })
	cs := r.session(t, "sharma", "sentineldb")
	if _, err := cs.Exec("create trigger t_audit on stock for insert event addStk as insert audit select symbol from stock.inserted"); err != nil {
		t.Fatal(err)
	}
	cs.Close()

	pipe := faults.NewPipe(faults.PipeConfig{Seed: 42, DropRate: 0.3, DupRate: 0.15, ReorderEvery: 3}, r.agent.Deliver)
	r.eng.SetNotifier(func(host string, port int, msg string) error {
		pipe.Send(msg)
		return nil
	})
	inj.Arm()

	const n = 40
	sess := r.eng.NewSession("sharma")
	if err := sess.Use("sentineldb"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sess.ExecScript(fmt.Sprintf("insert stock values ('S%02d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	pipe.Flush()
	r.agent.WaitActions()
	if err := r.agent.Resync(); err != nil {
		t.Fatalf("resync: %v", err)
	}
	r.agent.WaitActions()
	inj.Disarm()

	srv := httptest.NewServer(r.agent.AdminHandler())
	defer srv.Close()

	// /healthz.
	if code, body := adminGet(t, srv.URL, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}

	// /metrics: the exposition, Stats(), and the balance invariant.
	code, exposition := adminGet(t, srv.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	st := r.agent.Stats()
	received := metricTotal(t, exposition, "eca_notifications_received_total")
	delivered := metricTotal(t, exposition, "eca_notifications_delivered_total")
	dropped := metricTotal(t, exposition, "eca_notifications_dropped_total")
	duplicate := metricTotal(t, exposition, "eca_notifications_duplicate_total")
	if received == 0 {
		t.Fatal("no notifications recorded")
	}
	if received != delivered+dropped+duplicate {
		t.Errorf("notification balance: received %v != delivered %v + dropped %v + duplicate %v",
			received, delivered, dropped, duplicate)
	}
	if uint64(received) != st.NotificationsReceived || uint64(duplicate) != st.NotificationsDuplicate {
		t.Errorf("/metrics disagrees with Stats(): %v/%v vs %+v", received, duplicate, st)
	}
	if runs := metricTotal(t, exposition, "eca_actions_run_total"); runs != n {
		t.Errorf("eca_actions_run_total = %v, want %d", runs, n)
	}
	if perRule := metricTotal(t, exposition, "eca_rule_runs_total"); perRule != n {
		t.Errorf("eca_rule_runs_total (all rules) = %v, want %d", perRule, n)
	}
	// No rule failed, so the failure vector has headers but no series.
	if !strings.Contains(exposition, "# TYPE eca_rule_failures_total counter") {
		t.Error("eca_rule_failures_total family not exposed")
	}
	if strings.Contains(exposition, "eca_rule_failures_total{") {
		t.Error("eca_rule_failures_total has series despite zero failures")
	}
	if recovered := metricTotal(t, exposition, "eca_occurrences_recovered_total"); recovered == 0 {
		t.Error("recovery engaged but eca_occurrences_recovered_total = 0")
	}
	for _, h := range []string{"eca_detect_latency_seconds", "eca_action_latency_seconds", "eca_action_wait_seconds", "eca_gateway_batch_seconds"} {
		if count := metricTotal(t, exposition, h+"_count"); count == 0 {
			t.Errorf("histogram %s empty", h)
		}
		if buckets := metricTotal(t, exposition, h+"_bucket"); buckets == 0 {
			t.Errorf("histogram %s has no bucket lines", h)
		}
	}

	if conns := metricTotal(t, exposition, "eca_action_conns"); conns < 1 {
		t.Errorf("eca_action_conns = %v after %d actions, want at least 1", conns, n)
	}

	// /stats: same counters through the JSON surface.
	code, statsBody := adminGet(t, srv.URL, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	var js struct {
		NotificationsReceived  uint64
		NotificationsDelivered uint64
		NotificationsDropped   uint64
		NotificationsDuplicate uint64
		ActionsRun             uint64
		Triggers               int
		Histograms             map[string]struct {
			Count   uint64 `json:"count"`
			Sum     float64
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		}
	}
	if err := json.Unmarshal([]byte(statsBody), &js); err != nil {
		t.Fatalf("/stats JSON: %v\n%s", err, statsBody)
	}
	if js.NotificationsReceived != uint64(received) ||
		js.NotificationsReceived != js.NotificationsDelivered+js.NotificationsDropped+js.NotificationsDuplicate {
		t.Errorf("/stats balance: %+v vs /metrics received %v", js, received)
	}
	if js.ActionsRun != n || js.Triggers != 1 {
		t.Errorf("/stats: ActionsRun=%d Triggers=%d", js.ActionsRun, js.Triggers)
	}
	act, ok := js.Histograms["eca_action_latency_seconds"]
	if !ok || act.Count == 0 || len(act.Buckets) == 0 {
		t.Errorf("/stats action histogram: %+v", act)
	}
	if len(act.Buckets) > 0 && act.Buckets[len(act.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket le = %q", act.Buckets[len(act.Buckets)-1].LE)
	}

	// /eventgraph.
	if code, dot := adminGet(t, srv.URL, "/eventgraph"); code != http.StatusOK || !strings.Contains(dot, "digraph") {
		t.Errorf("/eventgraph: %d %.60q", code, dot)
	}

	// pprof: the index and a short CPU profile.
	if code, body := adminGet(t, srv.URL, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: %d", code)
	}
	if code, _ := adminGet(t, srv.URL, "/debug/pprof/profile?seconds=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/profile: %d", code)
	}
}

// TestLivenessReadinessSplit: /livez (and the /healthz alias) report the
// process alive regardless of role, while /readyz reflects the ingest
// gate — "ok" standalone, the cluster role once SetRoleFunc installs one,
// and 503 for any state that must not receive notifications.
func TestLivenessReadinessSplit(t *testing.T) {
	r := newChaosRig(t, nil, nil)
	srv := httptest.NewServer(r.agent.AdminHandler())
	defer srv.Close()

	for _, path := range []string{"/livez", "/healthz"} {
		if code, body := adminGet(t, srv.URL, path); code != http.StatusOK || !strings.Contains(body, "ok") {
			t.Errorf("%s: %d %q", path, code, body)
		}
	}
	if code, body := adminGet(t, srv.URL, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/readyz standalone: %d %q", code, body)
	}

	role := "standby"
	r.agent.SetRoleFunc(func() string { return role })
	if code, body := adminGet(t, srv.URL, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "standby") {
		t.Errorf("/readyz standby: %d %q", code, body)
	}
	// Liveness is unaffected by the standby role.
	if code, _ := adminGet(t, srv.URL, "/livez"); code != http.StatusOK {
		t.Errorf("/livez standby: %d", code)
	}
	role = "primary"
	if code, body := adminGet(t, srv.URL, "/readyz"); code != http.StatusOK || !strings.Contains(body, "primary") {
		t.Errorf("/readyz primary: %d %q", code, body)
	}
	r.agent.SetRoleFunc(nil)
	if code, body := adminGet(t, srv.URL, "/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/readyz after reset: %d %q", code, body)
	}
}

// TestReadinessRecovering: before New returns the agent gates delivery on
// the ready channel; Readiness must report ("recovering", false) in that
// window. Driven directly against a hand-built Agent to avoid racing real
// startup.
func TestReadinessRecovering(t *testing.T) {
	a := &Agent{ready: make(chan struct{})}
	if state, ready := a.Readiness(); ready || state != "recovering" {
		t.Fatalf("pre-ready Readiness = %q, %v", state, ready)
	}
	close(a.ready)
	if state, ready := a.Readiness(); !ready || state != "ok" {
		t.Fatalf("post-ready Readiness = %q, %v", state, ready)
	}
}
