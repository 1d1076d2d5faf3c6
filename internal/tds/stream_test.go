package tds

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/activedb/ecaagent/internal/sqltypes"
)

// refWriteResults is the per-token framing WriteResults must reproduce
// byte for byte: each token marshalled on its own and framed by
// WritePacket, in the documented order.
func refWriteResults(w io.Writer, results []*sqltypes.ResultSet, execErr error) error {
	var pkts []Packet
	for _, rs := range results {
		if rs == nil {
			continue
		}
		if rs.Schema != nil {
			pkts = append(pkts, MarshalRowFmt(rs.Schema))
			for _, row := range rs.Rows {
				pkts = append(pkts, MarshalRow(row))
			}
		}
		for _, msg := range rs.Messages {
			pkts = append(pkts, MarshalInfo(msg))
		}
		pkts = append(pkts, MarshalDone(rs.RowsAffected, false))
	}
	if execErr != nil {
		pkts = append(pkts, MarshalError(execErr.Error()))
	}
	pkts = append(pkts, MarshalDone(0, true))
	for _, p := range pkts {
		if err := WritePacket(w, p); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter records the size of every Write.
type countingWriter struct {
	bytes.Buffer
	writes []int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// dmlResponse is what a one-row insert on a table with a primitive event
// answers: the insert's DONE, then the trigger's `select syb_sendmsg(...)`
// as ROWFMT, ROW, DONE, then DONEFINAL.
func dmlResponse() []*sqltypes.ResultSet {
	return []*sqltypes.ResultSet{
		{RowsAffected: 1},
		{
			Schema: sqltypes.NewSchema(sqltypes.Column{Name: "col1", Type: sqltypes.Int, Nullable: true}),
			Rows:   []sqltypes.Row{{sqltypes.NewInt(0)}},
		},
	}
}

func TestWriteResultsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteResults(&w, dmlResponse(), nil); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 || w.writes[0] != 40 {
		t.Fatalf("DML response took writes %v, want one of 40 bytes", w.writes)
	}
	var ref bytes.Buffer
	if err := refWriteResults(&ref, dmlResponse(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("bytes differ from per-token framing:\n got %x\nwant %x", w.Bytes(), ref.Bytes())
	}

	var p countingWriter
	if err := WritePacket(&p, MarshalLanguage("select 1")); err != nil {
		t.Fatal(err)
	}
	if len(p.writes) != 1 {
		t.Fatalf("WritePacket took %d writes, want 1", len(p.writes))
	}
}

// A response larger than the buffer is written in bounded chunks as it is
// encoded, never held whole.
func TestWriteResultsBoundedChunks(t *testing.T) {
	rs := &sqltypes.ResultSet{Schema: testSchema()}
	for i := 0; i < 2000; i++ {
		rs.Rows = append(rs.Rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x"),
			sqltypes.Null, sqltypes.NewFloat(float64(i)), sqltypes.NewBit(i%2 == 0), sqltypes.NewText("t")})
	}
	var w countingWriter
	if err := WriteResults(&w, []*sqltypes.ResultSet{rs}, nil); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) < 2 {
		t.Fatalf("%d-byte response went out in %d write(s)", w.Len(), len(w.writes))
	}
	for i, n := range w.writes {
		if n > writeBufSize {
			t.Fatalf("write %d carried %d bytes, over the %d-byte bound", i, n, writeBufSize)
		}
	}
	var ref bytes.Buffer
	_ = refWriteResults(&ref, []*sqltypes.ResultSet{rs}, nil)
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatal("chunked bytes differ from per-token framing")
	}
}

// A packet larger than the buffer grows it for that response only: the
// grown buffer is not returned to the pool.
func TestWriteBufferNotRetainedAfterLargePacket(t *testing.T) {
	big := []*sqltypes.ResultSet{{Messages: []string{strings.Repeat("m", 64<<10)}}}
	for i := 0; i < 4; i++ {
		if err := WriteResults(io.Discard, big, nil); err != nil {
			t.Fatal(err)
		}
		bp := writeBufs.Get().(*[]byte)
		if cap(*bp) > writeBufSize || len(*bp) != 0 {
			t.Fatalf("pool handed out a buffer of len %d cap %d (bound %d)", len(*bp), cap(*bp), writeBufSize)
		}
		writeBufs.Put(bp)
	}
}

func TestWriteResultsDMLAllocFree(t *testing.T) {
	results := dmlResponse()
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteResults(io.Discard, results, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteResults allocated %.1f times per DML response, want 0", allocs)
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("link down")
	}
	f.after--
	return len(p), nil
}

func TestWriteResultsPropagatesWriteError(t *testing.T) {
	if err := WriteResults(&failingWriter{}, dmlResponse(), nil); err == nil {
		t.Fatal("write error swallowed on the final flush")
	}
	rs := &sqltypes.ResultSet{Messages: make([]string, 500)}
	if err := WriteResults(&failingWriter{after: 1}, []*sqltypes.ResultSet{rs}, nil); err == nil {
		t.Fatal("write error swallowed on a mid-response flush")
	}
}

// randomResults draws a response: result sets with and without schemas,
// rows over every value kind the decoder reproduces, messages, nil
// entries, and now and then a packet larger than the write buffer.
func randomResults(rng *rand.Rand) ([]*sqltypes.ResultSet, error) {
	kinds := []sqltypes.Type{sqltypes.Int, sqltypes.VarChar(20), sqltypes.Float, sqltypes.Bit, sqltypes.Text, sqltypes.DateTime}
	str := func() string {
		n := rng.Intn(12)
		if rng.Intn(40) == 0 {
			n = writeBufSize + rng.Intn(3*writeBufSize)
		}
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	var out []*sqltypes.ResultSet
	for i, n := 0, rng.Intn(5); i < n; i++ {
		if rng.Intn(8) == 0 {
			out = append(out, nil)
			continue
		}
		rs := &sqltypes.ResultSet{RowsAffected: rng.Intn(1000) - 10}
		if rng.Intn(2) == 0 {
			var cols []sqltypes.Column
			for c, nc := 0, 1+rng.Intn(4); c < nc; c++ {
				cols = append(cols, sqltypes.Column{Name: fmt.Sprintf("c%d", c), Type: kinds[rng.Intn(len(kinds))], Nullable: rng.Intn(2) == 0})
			}
			rs.Schema = sqltypes.NewSchema(cols...)
			for r, nr := 0, rng.Intn(60); r < nr; r++ {
				row := make(sqltypes.Row, len(cols))
				for c, col := range cols {
					if col.Nullable && rng.Intn(4) == 0 {
						row[c] = sqltypes.Null
						continue
					}
					switch col.Type.Kind {
					case sqltypes.KindInt:
						row[c] = sqltypes.NewInt(rng.Int63() - rng.Int63())
					case sqltypes.KindVarChar:
						row[c] = sqltypes.NewString(str())
					case sqltypes.KindFloat:
						row[c] = sqltypes.NewFloat(math.Float64frombits(rng.Uint64()))
					case sqltypes.KindBit:
						row[c] = sqltypes.NewBit(rng.Intn(2) == 0)
					case sqltypes.KindText:
						row[c] = sqltypes.NewText(str())
					case sqltypes.KindDateTime:
						row[c] = sqltypes.NewDateTime(time.UnixMilli(rng.Int63n(1 << 42)).UTC())
					}
				}
				rs.Rows = append(rs.Rows, row)
			}
		}
		for m, nm := 0, rng.Intn(3); m < nm; m++ {
			rs.Messages = append(rs.Messages, str())
		}
		out = append(out, rs)
	}
	var err error
	if rng.Intn(3) == 0 {
		err = errors.New(str())
	}
	return out, err
}

// readers are the ways a response reaches ReadResponse: whole, one byte
// per Read, and through buffered readers big and small enough that
// tokens are decoded both in place and copied out.
var readers = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"plain", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"bufio-16/one-byte", func(b []byte) io.Reader {
		return bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(b)), 16)
	}},
	{"bufio-1k", func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 1<<10) }},
	{"bufio-64k/half", func(b []byte) io.Reader {
		return bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(b)), 64<<10)
	}},
}

// TestWriteResultsProperty: over random responses, WriteResults emits
// exactly the per-token framing, and ReadResponse through every reader
// shape decodes a response that re-encodes to the same bytes.
func TestWriteResultsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		results, execErr := randomResults(rng)
		var got, want bytes.Buffer
		if err := WriteResults(&got, results, execErr); err != nil {
			t.Fatal(err)
		}
		if err := refWriteResults(&want, results, execErr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("case %d: WriteResults bytes differ from per-token framing", i)
		}
		for _, rd := range readers {
			back, err := ReadResponse(rd.wrap(got.Bytes()))
			var se *ServerError
			switch {
			case execErr == nil && err != nil:
				t.Fatalf("case %d via %s: %v", i, rd.name, err)
			case execErr != nil && (!errors.As(err, &se) || se.Msg != execErr.Error()):
				t.Fatalf("case %d via %s: error %v, want ServerError %q", i, rd.name, err, execErr)
			}
			var again bytes.Buffer
			var reErr error
			if se != nil {
				reErr = se
			}
			if err := WriteResults(&again, back, reErr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), got.Bytes()) {
				t.Fatalf("case %d via %s: decoded response re-encodes differently", i, rd.name)
			}
		}
	}
}

// Two responses back to back: a plain reader stops exactly at the first
// DONEFINAL, and a buffered reader keeps the second for the next call.
func TestReadResponseStopsAtDoneFinal(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteResults(&buf, dmlResponse(), nil)
	_ = WriteResults(&buf, []*sqltypes.ResultSet{{Messages: []string{"second"}}}, nil)
	for _, rd := range readers {
		r := rd.wrap(buf.Bytes())
		first, err := ReadResponse(r)
		if err != nil || len(first) != 2 {
			t.Fatalf("%s: first response %v %v", rd.name, first, err)
		}
		second, err := ReadResponse(r)
		if err != nil || len(second) != 1 || second[0].Messages[0] != "second" {
			t.Fatalf("%s: second response %v %v", rd.name, second, err)
		}
	}
}

// FuzzReadResponse: on any input, the buffered in-place path decodes
// exactly what the unbuffered ReadPacket path does, and fails the same
// way.
func FuzzReadResponse(f *testing.F) {
	var ok, withErr bytes.Buffer
	_ = WriteResults(&ok, dmlResponse(), nil)
	_ = WriteResults(&withErr, []*sqltypes.ResultSet{{Schema: testSchema()}}, errors.New("boom"))
	f.Add(ok.Bytes())
	f.Add(withErr.Bytes())
	f.Add(ok.Bytes()[:17])
	f.Add([]byte{byte(PktRow), 0, 0, 0, 40, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := ReadResponse(bytes.NewReader(data))
		var ref bytes.Buffer
		_ = WriteResults(&ref, want, nil)
		for _, size := range []int{16, 64, 4096} {
			got, gotErr := ReadResponse(bufio.NewReaderSize(bytes.NewReader(data), size))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("bufio-%d: error %v, unbuffered %v", size, gotErr, wantErr)
			}
			var enc bytes.Buffer
			_ = WriteResults(&enc, got, nil)
			if !bytes.Equal(enc.Bytes(), ref.Bytes()) {
				t.Fatalf("bufio-%d: decoded results differ from the unbuffered path", size)
			}
		}
	})
}
