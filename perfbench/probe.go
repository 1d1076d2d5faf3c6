package main

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/led"
	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/storage"
	"github.com/activedb/ecaagent/internal/tds"
)

// faultPlan injects faults at the program's public seams. The oracle test
// uses it to show that the benchmark's checks notice broken runs; a
// benchmark run leaves it zero.
type faultPlan struct {
	// failActionEvery > 0 fails every n-th rule-action Exec with a server
	// error, which the agent treats as terminal (no retry).
	failActionEvery int64
	// dropNotify > 0 swallows the n-th syb_sendmsg datagram.
	dropNotify int64
}

// occKey names one primitive occurrence. Every span of an occurrence —
// notifier send, detection, action — carries it.
type occKey struct {
	event string
	vno   int
}

// actionSpan is one rule-action upstream Exec.
type actionSpan struct {
	proc       string
	start, end time.Time
}

// probe wraps the program's public seams: the upstream dialer, the
// engine's notifier, the agent's Forward hook, the durability FS and the
// replication sink and barrier. With trace set it records spans at each
// boundary; with a faultPlan it injects faults. A deployment built
// without a probe uses the seams unwrapped.
type probe struct {
	trace  bool
	faults faultPlan

	actionExecs atomic.Int64
	notifies    atomic.Int64

	mu        sync.Mutex
	sent      map[occKey]time.Time // notifier send start; guarded by mu
	detected  map[occKey]time.Time // Forward stamp; guarded by mu
	actions   []actionSpan         // action Execs awaiting their ActionDone report, FIFO; guarded by mu
	unpaired  int                  // ActionDone reports whose Exec span did not match; guarded by mu
	sessions  []*timedUpstream     // session upstreams in dial order; guarded by mu
	notifyUs  []float64            // guarded by mu
	walAppend []float64            // guarded by mu
	walSync   []float64            // guarded by mu
	shipFrame []float64            // guarded by mu
	barrier   []float64            // guarded by mu
	walBytes  int64                // guarded by mu
	walSyncs  int64                // guarded by mu
	frames    int64                // guarded by mu
	frameB    int64                // guarded by mu
}

func newProbe(trace bool, faults faultPlan) *probe {
	return &probe{
		trace:    trace,
		faults:   faults,
		sent:     make(map[occKey]time.Time),
		detected: make(map[occKey]time.Time),
	}
}

// dial wraps an UpstreamDialer so every Exec is timed. Connections opened
// for a client login are the session role; the agent's own connections
// (admin user) carry the Persistent Manager's DDL and the rule actions.
func (p *probe) dial(next agent.UpstreamDialer, adminUser string) agent.UpstreamDialer {
	return func(user, db string) (agent.Upstream, error) {
		up, err := next(user, db)
		if err != nil {
			return nil, err
		}
		u := &timedUpstream{up: up, p: p, session: user != adminUser}
		if u.session {
			p.mu.Lock()
			p.sessions = append(p.sessions, u)
			p.mu.Unlock()
		}
		return u, nil
	}
}

// session returns the i-th session upstream the gateway dialed.
func (p *probe) session(i int) *timedUpstream {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < len(p.sessions) {
		return p.sessions[i]
	}
	return nil
}

type timedUpstream struct {
	up      agent.Upstream
	p       *probe
	session bool
	last    atomic.Int64 // duration of the latest Exec, ns
	execs   atomic.Int64
}

// actionProc returns the procedure an Action Handler batch executes, or ""
// when sql is not an action batch (Persistent Manager DDL, resync reads).
func actionProc(sql string) string {
	i := strings.LastIndex(sql, "\nexecute ")
	if i < 0 || !strings.HasPrefix(sql, "use ") {
		return ""
	}
	return strings.TrimSpace(sql[i+len("\nexecute "):])
}

func (u *timedUpstream) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	proc := ""
	if !u.session {
		proc = actionProc(sql)
	}
	if proc != "" {
		n := u.p.actionExecs.Add(1)
		if every := u.p.faults.failActionEvery; every > 0 && n%every == 0 {
			now := time.Now()
			u.p.pushAction(actionSpan{proc: proc, start: now, end: now})
			return nil, &tds.ServerError{Msg: "perfbench: injected action failure"}
		}
	}
	start := time.Now()
	rs, err := u.up.Exec(sql)
	end := time.Now()
	if u.session {
		u.last.Store(int64(end.Sub(start)))
		u.execs.Add(1)
	}
	if proc != "" {
		u.p.pushAction(actionSpan{proc: proc, start: start, end: end})
	}
	return rs, err
}

func (u *timedUpstream) Close() error { return u.up.Close() }

func (p *probe) pushAction(s actionSpan) {
	if !p.trace {
		return
	}
	p.mu.Lock()
	p.actions = append(p.actions, s)
	p.mu.Unlock()
}

// popAction pairs an ActionDone report with its Exec span. The Action
// Handler runs actions one at a time in FIFO order and reports each before
// the next starts, so reports and spans arrive in the same order.
func (p *probe) popAction(rule string) (actionSpan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.actions) == 0 {
		p.unpaired++
		return actionSpan{}, false
	}
	s := p.actions[0]
	p.actions = p.actions[1:]
	if s.proc != rule+"__Proc" {
		p.unpaired++
		return actionSpan{}, false
	}
	return s, true
}

// notifier wraps the engine's syb_sendmsg transport.
func (p *probe) notifier(next engine.Notifier) engine.Notifier {
	return func(host string, port int, msg string) error {
		n := p.notifies.Add(1)
		if n == p.faults.dropNotify {
			return nil // lost on the wire
		}
		start := time.Now()
		err := next(host, port, msg)
		if p.trace {
			d := us(time.Since(start))
			k, ok := notifyKey(msg)
			p.mu.Lock()
			if ok {
				p.sent[k] = start
			}
			p.notifyUs = append(p.notifyUs, d)
			p.mu.Unlock()
		}
		return err
	}
}

// notifyKey parses the occurrence identity out of an ECA1|event|table|op|vNo
// datagram.
func notifyKey(msg string) (occKey, bool) {
	f := strings.Split(strings.TrimSpace(msg), "|")
	if len(f) != 5 {
		return occKey{}, false
	}
	v, err := strconv.Atoi(f[4])
	if err != nil {
		return occKey{}, false
	}
	return occKey{event: f[1], vno: v}, true
}

// forward is the agent's Forward hook: it runs right after the LED has
// been signalled with the occurrence.
func (p *probe) forward(pr led.Primitive) {
	now := time.Now()
	p.mu.Lock()
	p.detected[occKey{event: pr.Event, vno: pr.VNo}] = now
	p.mu.Unlock()
}

// stamps returns the notifier-send and detection times of an occurrence.
func (p *probe) stamps(k occKey) (sent, detected time.Time, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sent, ok1 := p.sent[k]
	detected, ok2 := p.detected[k]
	return sent, detected, ok1 && ok2
}

// fs wraps the durability FS; WAL appends and syncs are timed.
func (p *probe) fs(inner storage.FS) storage.FS { return &timedFS{FS: inner, p: p} }

type timedFS struct {
	storage.FS
	p *probe
}

func (t *timedFS) Create(name string) (storage.File, error) {
	f, err := t.FS.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return f, err
	}
	return &timedFile{File: f, p: t.p}, nil
}

type timedFile struct {
	storage.File
	p *probe
}

func (f *timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	d := us(time.Since(start))
	f.p.mu.Lock()
	f.p.walAppend = append(f.p.walAppend, d)
	f.p.walBytes += int64(n)
	f.p.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := us(time.Since(start))
	f.p.mu.Lock()
	f.p.walSync = append(f.p.walSync, d)
	f.p.walSyncs++
	f.p.mu.Unlock()
	return err
}

// shipped records one replication frame's ship-and-ack time.
func (p *probe) shipped(payload int, d time.Duration) {
	p.mu.Lock()
	p.shipFrame = append(p.shipFrame, us(d))
	p.frames++
	p.frameB += int64(payload)
	p.mu.Unlock()
}

// barrierWaited records one Durability.ShipBarrier call.
func (p *probe) barrierWaited(d time.Duration) {
	p.mu.Lock()
	p.barrier = append(p.barrier, us(d))
	p.mu.Unlock()
}
