package tds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// ServerError is an error reported by the remote side inside the result
// stream (as opposed to a transport failure).
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// writeBufSize is the capacity of a pooled write buffer. The buffer is
// written whenever fewer than minFree bytes remain, so a response of up
// to writeBufSize-minFree bytes goes out in one Write and a larger one
// in bounded chunks, never held whole in memory.
const (
	writeBufSize = 1 << 10
	minFree      = 128
)

// writeBufs recycles write buffers across responses and connections, so
// an idle connection holds none (DESIGN.md §15).
var writeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, writeBufSize)
	return &b
}}

// frameWriter frames packets into a pooled buffer and writes the buffer
// in as few Writes as its bound allows. The bytes are exactly those of
// WritePacket applied to each packet in turn.
type frameWriter struct {
	w  io.Writer
	bp *[]byte
	e  encoder
}

func newFrameWriter(w io.Writer) frameWriter {
	bp := writeBufs.Get().(*[]byte)
	return frameWriter{w: w, bp: bp, e: encoder{buf: (*bp)[:0]}}
}

// begin starts a packet of type t; its payload is encoded through f.e and
// the packet is closed by end with the returned offset.
func (f *frameWriter) begin(t PacketType) int {
	at := len(f.e.buf)
	f.e.buf = append(f.e.buf, byte(t), 0, 0, 0, 0)
	return at
}

// end fills in the length of the packet begun at offset at, then writes
// the buffer out if it is nearly full.
func (f *frameWriter) end(at int) error {
	n := len(f.e.buf) - at - hdrLen
	if n > maxPacketSize {
		f.e.buf = f.e.buf[:at]
		return fmt.Errorf("tds: packet too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(f.e.buf[at+1:at+hdrLen], uint32(n))
	if cap(f.e.buf)-len(f.e.buf) < minFree {
		return f.flush()
	}
	return nil
}

// flush writes whatever is buffered.
func (f *frameWriter) flush() error {
	if len(f.e.buf) == 0 {
		return nil
	}
	_, err := f.w.Write(f.e.buf)
	f.e.buf = f.e.buf[:0]
	return err
}

// release returns the buffer to the pool, unless one large packet grew it
// past its bound: such a buffer is left to the collector rather than kept.
func (f *frameWriter) release() {
	if cap(f.e.buf) > writeBufSize {
		return
	}
	*f.bp = f.e.buf[:0]
	writeBufs.Put(f.bp)
}

// WriteResults streams a slice of materialized result sets as protocol
// tokens, appending an ERROR token if execErr is non-nil, and terminates
// the response with DONEFINAL. The token order per result set is
// ROWFMT, ROW*, INFO*, DONE — the order a real server emits. The tokens
// are encoded straight into a pooled buffer, which is written when it
// fills and once after DONEFINAL.
func WriteResults(w io.Writer, results []*sqltypes.ResultSet, execErr error) error {
	f := newFrameWriter(w)
	defer f.release()
	for _, rs := range results {
		if rs == nil {
			continue
		}
		if rs.Schema != nil {
			at := f.begin(PktRowFmt)
			f.e.rowFmt(rs.Schema)
			if err := f.end(at); err != nil {
				return err
			}
			for _, row := range rs.Rows {
				at := f.begin(PktRow)
				f.e.row(row)
				if err := f.end(at); err != nil {
					return err
				}
			}
		}
		for _, msg := range rs.Messages {
			at := f.begin(PktInfo)
			f.e.str(msg)
			if err := f.end(at); err != nil {
				return err
			}
		}
		at := f.begin(PktDone)
		f.e.varint(int64(rs.RowsAffected))
		if err := f.end(at); err != nil {
			return err
		}
	}
	if execErr != nil {
		at := f.begin(PktError)
		f.e.str(execErr.Error())
		if err := f.end(at); err != nil {
			return err
		}
	}
	at := f.begin(PktDoneFinal)
	f.e.varint(0)
	if err := f.end(at); err != nil {
		return err
	}
	return f.flush()
}

// ReadResponse consumes tokens until DONEFINAL, reassembling materialized
// result sets. A remote ERROR token is returned as *ServerError alongside
// any results that preceded it; transport failures are returned as-is.
//
// From a plain io.Reader it reads exactly the response's bytes. Given a
// *bufio.Reader, it decodes each token that fits the reader's buffer in
// place, so a response already in the buffer costs no further reads and
// no per-token payload copy; the reader may then hold bytes past
// DONEFINAL, which is the caller's to check.
func ReadResponse(r io.Reader) ([]*sqltypes.ResultSet, error) {
	var (
		results []*sqltypes.ResultSet
		cur     *sqltypes.ResultSet
		srvErr  error
	)
	ensure := func() *sqltypes.ResultSet {
		if cur == nil {
			cur = &sqltypes.ResultSet{}
		}
		return cur
	}
	for {
		p, err := readToken(r)
		if err != nil {
			return results, err
		}
		switch p.Type {
		case PktRowFmt:
			schema, err := UnmarshalRowFmt(p)
			if err != nil {
				return results, err
			}
			ensure().Schema = schema
		case PktRow:
			row, err := UnmarshalRow(p)
			if err != nil {
				return results, err
			}
			ensure().Rows = append(ensure().Rows, row)
		case PktInfo:
			msg, err := UnmarshalText(p)
			if err != nil {
				return results, err
			}
			ensure().Messages = append(ensure().Messages, msg)
		case PktError:
			msg, err := UnmarshalText(p)
			if err != nil {
				return results, err
			}
			srvErr = &ServerError{Msg: msg}
		case PktDone:
			n, err := UnmarshalDone(p)
			if err != nil {
				return results, err
			}
			ensure().RowsAffected = n
			results = append(results, cur)
			cur = nil
		case PktDoneFinal:
			if cur != nil {
				results = append(results, cur)
			}
			return results, srvErr
		default:
			return results, fmt.Errorf("tds: unexpected token %s in response", p.Type)
		}
	}
}

// readToken reads one packet. From a *bufio.Reader, a packet that fits in
// the reader's buffer is returned in place: its Payload aliases the buffer
// and is valid only until the next read. ReadResponse decodes each token
// before it reads the next, and every decoder copies what it keeps.
func readToken(r io.Reader) (Packet, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		return ReadPacket(r)
	}
	hdr, err := br.Peek(hdrLen)
	if err != nil {
		return Packet{}, unexpectedEOF(err, len(hdr) > 0)
	}
	t := PacketType(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxPacketSize {
		return Packet{}, fmt.Errorf("tds: packet length %d exceeds limit", n)
	}
	if hdrLen+int(n) > br.Size() {
		if _, err := br.Discard(hdrLen); err != nil {
			return Packet{}, err
		}
		payload, err := readPayload(br, int(n))
		if err != nil {
			return Packet{}, err
		}
		return Packet{Type: t, Payload: payload}, nil
	}
	frame, err := br.Peek(hdrLen + int(n))
	if err != nil {
		return Packet{}, unexpectedEOF(err, len(frame) > hdrLen)
	}
	if _, err := br.Discard(len(frame)); err != nil {
		return Packet{}, err
	}
	return Packet{Type: t, Payload: frame[hdrLen:]}, nil
}

// unexpectedEOF maps an EOF after part of a header or payload to
// io.ErrUnexpectedEOF, so both read paths fail exactly as ReadPacket's
// io.ReadFull calls do.
func unexpectedEOF(err error, partial bool) error {
	if partial && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
