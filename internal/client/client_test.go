package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/activedb/ecaagent/internal/catalog"
	"github.com/activedb/ecaagent/internal/engine"
	"github.com/activedb/ecaagent/internal/server"
	"github.com/activedb/ecaagent/internal/tds"
)

func startServer(t *testing.T) string {
	t.Helper()
	srv := server.New(engine.New(catalog.New()))
	srv.Logf = func(string, ...any) {}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func TestConnectDefaultsAndClose(t *testing.T) {
	addr := startServer(t)
	c, err := Connect(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("select user_name()")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Str() != "dbo" {
		t.Errorf("default user: %v", rs.Rows[0])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("select 1"); err == nil {
		t.Error("exec after close succeeded")
	}
}

func TestConnectFailures(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", Options{Timeout: time.Second}); err == nil {
		t.Error("connect to dead port succeeded")
	}
	addr := startServer(t)
	if _, err := Connect(addr, Options{Database: "missing"}); err == nil {
		t.Error("login to missing database succeeded")
	}
}

func TestQueryPicksLastRowSet(t *testing.T) {
	addr := startServer(t)
	c, _ := Connect(addr, Options{})
	defer c.Close()
	if err := c.MustExec("create database d use d create table t (a int null) insert t values (1)"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Query("use d select 1 select a from t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 1 {
		t.Errorf("rows: %v", rs.Rows)
	}
	// Query over a script with no result sets returns an empty set.
	rs, err = c.Query("print 'nothing'")
	if err != nil || rs.Schema != nil {
		t.Errorf("no-rows query: %+v %v", rs, err)
	}
}

func TestMessagesCollectsInOrder(t *testing.T) {
	addr := startServer(t)
	c, _ := Connect(addr, Options{})
	defer c.Close()
	msgs, err := c.Messages("print 'a' print 'b' print 'c'")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(msgs) != "[a b c]" {
		t.Errorf("messages: %v", msgs)
	}
}

func TestServerErrorsSurviveAndPartialResults(t *testing.T) {
	addr := startServer(t)
	c, _ := Connect(addr, Options{})
	defer c.Close()
	if err := c.MustExec("create database d use d create table t (a int null) insert t values (5)"); err != nil {
		t.Fatal(err)
	}
	results, err := c.Exec("use d select a from t select * from ghost")
	var se *tds.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	found := false
	for _, rs := range results {
		if rs.Schema != nil && len(rs.Rows) == 1 && rs.Rows[0][0].Int() == 5 {
			found = true
		}
	}
	if !found {
		t.Error("partial results before the error were lost")
	}
	// Messages also returns partial output with the error.
	msgs, err := c.Messages("print 'before' select * from ghost")
	if err == nil || len(msgs) != 1 || msgs[0] != "before" {
		t.Errorf("partial messages: %v %v", msgs, err)
	}
}

func TestConnSerializesConcurrentUse(t *testing.T) {
	addr := startServer(t)
	c, _ := Connect(addr, Options{})
	defer c.Close()
	if err := c.MustExec("create database d use d create table t (a int null)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := c.MustExec(fmt.Sprintf("insert t values (%d)", g*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rs, err := c.Query("select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 16*20 {
		t.Errorf("count: %v", rs.Rows[0])
	}
}

func TestGoBatchesThroughClient(t *testing.T) {
	addr := startServer(t)
	c, _ := Connect(addr, Options{})
	defer c.Close()
	// CREATE PROCEDURE must be alone in its batch; GO separation makes a
	// single Exec call work.
	err := c.MustExec(`create database d
go
use d
create table t (a int null)
go
create procedure p as select count(*) from t
go
insert t values (1)
execute p
go`)
	if err != nil {
		t.Fatal(err)
	}
}

// countingConn counts the Writes and Reads issued on a connection.
type countingConn struct {
	net.Conn
	writes, reads int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// A request is one Write, and a small response, which the server writes
// as one message, is taken in one Read.
func TestExecOneWritePerRequest(t *testing.T) {
	addr := startServer(t)
	c, err := Connect(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MustExec("create database d use d create table t (a int null, b varchar(10) null)"); err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: c.conn}
	c.conn = cc
	for i, sql := range []string{"insert t values (1, 'x')", "select a, b from t where a = 1", "print 'hi'"} {
		cc.writes, cc.reads = 0, 0
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if cc.writes != 1 || cc.reads != 1 {
			t.Errorf("statement %d: %d writes and %d reads, want 1 and 1", i, cc.writes, cc.reads)
		}
	}
}

// Bytes after DONEFINAL mean the stream is out of step; Exec reports them
// instead of dropping them with its reader.
func TestExecRejectsBytesAfterResponse(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	c := &Conn{conn: cli}
	defer c.Close()
	go func() {
		if _, err := tds.ReadPacket(srv); err != nil {
			return
		}
		var buf bytes.Buffer
		_ = tds.WriteResults(&buf, nil, nil)
		buf.WriteString("junk")
		_, _ = srv.Write(buf.Bytes())
	}()
	if _, err := c.Exec("select 1"); err == nil || !strings.Contains(err.Error(), "4 unexpected bytes") {
		t.Fatalf("trailing bytes: got %v", err)
	}
}
