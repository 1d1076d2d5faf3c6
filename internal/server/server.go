// Package server exposes the SQL engine over TCP using the tds protocol —
// the reproduction's stand-in for the Sybase SQL Server process. The ECA
// agent connects to it exactly the way any client does.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/tds"
)

// Server serves the tds protocol over TCP on top of an engine.
type Server struct {
	eng *engine.Engine

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// SnapshotPath, when set, is written on Checkpoint().
	SnapshotPath string
	// Logf receives diagnostics; defaults to log.Printf. Set to a no-op in
	// tests.
	Logf func(format string, args ...any)
}

// New creates a server over the engine.
func New(eng *engine.Engine) *Server {
	return &Server{
		eng:   eng,
		conns: make(map[net.Conn]struct{}),
		Logf:  log.Printf,
	}
}

// Engine returns the underlying engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting connections in a background goroutine.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server is closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and closes all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Checkpoint persists the catalog snapshot if SnapshotPath is configured.
func (s *Server) Checkpoint() error {
	if s.SnapshotPath == "" {
		return nil
	}
	return s.eng.Catalog().SaveFile(s.SnapshotPath)
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Login handshake.
	pkt, err := tds.ReadPacket(conn)
	if err != nil {
		return
	}
	login, err := tds.UnmarshalLogin(pkt)
	if err != nil {
		_ = tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{Message: err.Error()}))
		return
	}
	sess := s.eng.NewSession(login.User)
	if login.Database != "" {
		if err := sess.Use(login.Database); err != nil {
			_ = tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{Message: err.Error()}))
			return
		}
	}
	if err := tds.WritePacket(conn, tds.MarshalLoginAck(tds.LoginAck{OK: true, Message: "login succeeded"})); err != nil {
		return
	}

	// Request loop. A request is one packet, so it is read straight off
	// the conn; the response is one Write unless it outgrows WriteResults'
	// pooled buffer (DESIGN.md §15).
	for {
		pkt, err := tds.ReadPacket(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("server: read: %v", err)
			}
			return
		}
		sql, err := tds.UnmarshalLanguage(pkt)
		if err != nil {
			_ = tds.WriteResults(conn, nil, fmt.Errorf("protocol error: %v", err))
			continue
		}
		results, execErr := sess.ExecScript(sql)
		if err := tds.WriteResults(conn, results, execErr); err != nil {
			return
		}
	}
}
