package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/activedb/ecaagent/internal/agent"
	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/client"
	"github.com/activedb/ecaagent/internal/cluster"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/storage"
)

const (
	benchDB   = "benchdb"
	benchUser = "sharma"
	adminUser = "dbo"
	// syncWindow is the shipper's in-flight frame bound on durable_sync.
	syncWindow = 4
)

// deployment is the paper's full TCP deployment in one process: the SQL
// server, the ECA agent dialing it over the wire, the agent's gateway the
// clients log in to, and on durable_sync a replication standby.
type deployment struct {
	srv     *server.Server
	agent   *agent.Agent
	clients []*client.Conn
	probe   *probe // nil when neither tracing nor injecting faults

	// durable_sync only.
	shipper     *cluster.Shipper
	ctl         *cluster.SyncController
	applier     *cluster.Applier
	stopStandby func()
	acked       atomic.Int64 // replication frames the standby acknowledged

	disp *dispatcher
}

func quiet(string, ...any) {}

// deploy stands the system up from public constructors and connects
// nClients clients to the gateway, in order, so the probe's i-th session
// upstream belongs to client i.
func deploy(w *workload, p *probe, seed int64) (*deployment, error) {
	d := &deployment{probe: p}
	eng := engine.New(catalog.New())
	notify := engine.UDPNotifier()
	if p != nil {
		notify = p.notifier(notify)
	}
	eng.SetNotifier(notify)
	d.srv = server.New(eng)
	d.srv.Logf = quiet
	if err := d.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	dial := agent.TCPDialer(d.srv.Addr())
	if p != nil {
		dial = p.dial(dial, adminUser)
	}
	cfg := agent.Config{Dial: dial, AdminUser: adminUser, Logf: quiet}
	if p != nil && p.trace {
		cfg.Forward = p.forward
	}
	if w.durable {
		if err := d.replicate(&cfg, seed); err != nil {
			d.close()
			return nil, err
		}
	}
	a, err := agent.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.agent = a
	d.disp = startDispatcher(a.ActionDone, p, w)
	if err := a.ListenGateway("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < nClients; i++ {
		opts := client.Options{User: benchUser, Database: benchDB}
		if i == 0 {
			opts.Database = "" // client 0 creates the database
		}
		c, err := client.Connect(a.GatewayAddr(), opts)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
		if i == 0 {
			if err := c.MustExec("create database " + benchDB); err != nil {
				d.close()
				return nil, err
			}
			if err := c.MustExec("use " + benchDB); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	for _, stmt := range w.schema() {
		if err := d.clients[0].MustExec(stmt); err != nil {
			d.close()
			return nil, fmt.Errorf("setup %q: %w", firstLine(stmt), err)
		}
	}
	return d, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// replicate wires durable_sync's durability after cmd/ecaagent's sync
// primary: the WAL is written with WALSync always into a ShipFS whose
// sink ships and barriers every frame to a standby (chain replication),
// and a SyncController barrier gates each occurrence. It leaves out the
// rest of that wiring: no FencedDialer, so action Execs carry no epoch
// check; no DefinitionSink, so rule definitions are not shipped; and no
// heartbeater on the link. Both the primary's and the standby's
// directories are in memory (faults.CrashDir), so a Sync commits to
// memory as it does on tmpfs.
func (d *deployment) replicate(cfg *agent.Config, seed int64) error {
	d.applier = cluster.NewApplier(faults.NewCrashDir(seed+1), nil)
	addr, stop, err := cluster.ListenStandby("127.0.0.1:0", d.applier)
	if err != nil {
		return err
	}
	d.stopStandby = stop
	p := d.probe
	tracing := p != nil && p.trace
	sink := func(f cluster.Frame) error {
		start := time.Now()
		err := d.shipper.Ship(f)
		if err == nil {
			err = d.shipper.Barrier()
		}
		d.ctl.ObserveShip(err)
		if err == nil {
			d.acked.Add(1)
		}
		if tracing {
			p.shipped(len(f.Payload), time.Since(start))
		}
		return err
	}
	var local storage.FS = faults.NewCrashDir(seed)
	if tracing {
		local = p.fs(local)
	}
	ship := cluster.NewShipFS(local, sink, nil, nil)
	d.shipper = cluster.NewShipper(cluster.ShipperConfig{
		Addr: addr, Node: "primary", Snapshot: ship.SnapshotFrames,
		SyncWindow: syncWindow, AckTimeout: 5 * time.Second,
	}, nil)
	d.ctl = cluster.NewSyncController(cluster.SyncConfig{Mode: cluster.ReplModeSync}, d.shipper.Barrier, nil)
	barrier := d.ctl.Barrier
	if tracing {
		barrier = func() error {
			start := time.Now()
			err := d.ctl.Barrier()
			p.barrierWaited(time.Since(start))
			return err
		}
	}
	cfg.Durability = &agent.Durability{FS: ship, WALSync: agent.WALSyncAlways, ShipBarrier: barrier}
	return nil
}

// close stops everything deploy started and waits for it.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.agent != nil {
		d.agent.Close()
	}
	if d.disp != nil {
		d.disp.close()
	}
	if d.shipper != nil {
		d.shipper.Close()
	}
	if d.stopStandby != nil {
		d.stopStandby()
	}
	if d.applier != nil {
		d.applier.Close()
	}
	d.srv.Close()
}
