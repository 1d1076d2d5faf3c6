// Package client is the Open Client analog: a small library programs use
// to talk to the SQL server or — identically and transparently — to the
// ECA agent's gateway. It is the only API the example applications need.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
	"github.com/activedb/ecaagent/internal/tds"
)

// Conn is one logged-in connection. It is safe for concurrent use; requests
// are serialized on the wire.
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
}

// Options configures Connect.
type Options struct {
	// User is the login name; defaults to "dbo".
	User string
	// Database is an optional initial database.
	Database string
	// Timeout bounds the dial; zero means no timeout.
	Timeout time.Duration
}

// Connect dials addr and performs the login handshake.
func Connect(addr string, opts Options) (*Conn, error) {
	if opts.User == "" {
		opts.User = "dbo"
	}
	d := net.Dialer{Timeout: opts.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := tds.WritePacket(conn, tds.MarshalLogin(tds.Login{User: opts.User, Database: opts.Database})); err != nil {
		conn.Close()
		return nil, err
	}
	pkt, err := tds.ReadPacket(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := tds.UnmarshalLoginAck(pkt)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if !ack.OK {
		conn.Close()
		return nil, fmt.Errorf("login rejected: %s", ack.Message)
	}
	return &Conn{conn: conn}, nil
}

// respBufSize sizes the reader Exec reads one response through. The
// typical response (a DML's DONE tokens, a point select) is well under a
// hundred bytes, so one read takes it whole; larger responses are read
// in chunks of this size.
const respBufSize = 1 << 10

// Exec sends a SQL script (GO-separated batches allowed) and materializes
// the full response. A server-reported error is returned as
// *tds.ServerError together with the results that preceded it.
//
// The request is one Write. The response is read through a buffered
// reader that lives only for this call: an idle connection holds no
// buffer (DESIGN.md §15).
func (c *Conn) Exec(sql string) ([]*sqltypes.ResultSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := tds.WritePacket(c.conn, tds.MarshalLanguage(sql)); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(c.conn, respBufSize)
	results, err := tds.ReadResponse(br)
	var srvErr *tds.ServerError
	if n := br.Buffered(); n > 0 && (err == nil || errors.As(err, &srvErr)) {
		// The server speaks only when spoken to; bytes past DONEFINAL
		// would otherwise be dropped with the reader.
		return results, fmt.Errorf("client: %d unexpected bytes after end of response", n)
	}
	return results, err
}

// MustExec is Exec for program setup paths: it returns only the first
// error.
func (c *Conn) MustExec(sql string) error {
	_, err := c.Exec(sql)
	return err
}

// Query runs sql and returns the last result set that has a schema, which
// is the common "run one SELECT" case.
func (c *Conn) Query(sql string) (*sqltypes.ResultSet, error) {
	results, err := c.Exec(sql)
	if err != nil {
		return nil, err
	}
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Schema != nil {
			return results[i], nil
		}
	}
	return &sqltypes.ResultSet{}, nil
}

// Messages runs sql and returns all informational messages (PRINT output,
// trigger chatter) in order.
func (c *Conn) Messages(sql string) ([]string, error) {
	results, err := c.Exec(sql)
	var msgs []string
	for _, rs := range results {
		msgs = append(msgs, rs.Messages...)
	}
	return msgs, err
}

// Close shuts the connection down.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
