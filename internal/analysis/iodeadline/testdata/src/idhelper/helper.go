// Package idhelper sits outside the transport target list: nothing here
// is reported, but its helpers export facts — ReadMsg blocks on its conn
// argument (callers owe the deadline), Prepare sets one (calling it
// satisfies the rule). ReadFull, over an io.Reader, exports none.
package idhelper

import (
	"io"
	"net"
	"time"
)

// ReadMsg performs a blocking read on conn without deadlining it.
func ReadMsg(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf)
}

// Prepare deadlines conn for both directions.
func Prepare(conn net.Conn, d time.Duration) error {
	return conn.SetDeadline(time.Now().Add(d))
}

// SendAll deadlines and writes: self-contained, no fact, no report.
func SendAll(conn net.Conn, p []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := conn.Write(p)
	return err
}

// ReadFull blocks on its reader, but the reader is an io.Reader, not a
// conn: it exports no fact, whatever its callers pass.
func ReadFull(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	return err
}
