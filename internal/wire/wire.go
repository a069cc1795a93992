// Package wire defines dataspreadd's network protocol: a compact, versioned,
// length-prefixed binary framing shared by the server (internal/server) and
// the pure-Go client (client). A connection is a sequence of frames
//
//	[ type: 1 byte ][ payload length: 4 bytes big-endian ][ payload ]
//
// and every conversation is client-initiated: the client sends a request
// frame, the server answers with one or more response frames. The only frame
// a client may send while a response stream is in flight is MsgCancel, which
// the server's reader goroutine handles out of band.
//
// Payloads are built from four primitives — unsigned varints, length-
// prefixed strings, engine values and raw bytes — via Buf (writer) and
// Reader (error-latching reader). Engine values travel as a 1-byte kind tag
// followed by the kind's natural encoding, mirroring sheet.Value exactly.
//
// Errors cross the wire as (code, message) pairs where the code identifies a
// dberr sentinel; RemoteError re-attaches the sentinel on the client side so
// errors.Is keeps working across the network boundary.
//
// dslint:errdomain
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
)

// ProtocolVersion is the protocol revision this package speaks. The client
// announces its version in MsgHello; a server that cannot speak it rejects
// the handshake with CodeAuth.
const ProtocolVersion = 1

// MaxFrameLen bounds a frame payload (16 MiB): a peer announcing more is
// protocol corruption, not a large result — row streams are chunked into
// many small MsgRowBatch frames well below this.
const MaxFrameLen = 16 << 20

// MsgType identifies a frame. Client-to-server types occupy 0x01-0x7f,
// server-to-client types 0x81-0xff.
type MsgType uint8

// Client-to-server frames.
const (
	// MsgHello opens a connection: version, tenant, token.
	MsgHello MsgType = 0x01
	// MsgPrepare registers a statement under a client-chosen id: id, sql.
	MsgPrepare MsgType = 0x02
	// MsgExecute runs a prepared statement: id, mode (ExecModeExec or
	// ExecModeQuery), positional values, named values.
	MsgExecute MsgType = 0x03
	// MsgCloseStmt drops a prepared statement: id.
	MsgCloseStmt MsgType = 0x04
	// MsgBegin / MsgCommit / MsgRollback control the session transaction.
	MsgBegin    MsgType = 0x05
	MsgCommit   MsgType = 0x06
	MsgRollback MsgType = 0x07
	// MsgCancel aborts the in-flight query of this session. It is the only
	// frame a client may send mid-stream.
	MsgCancel MsgType = 0x08
	// MsgPing checks liveness; the server answers MsgPong.
	MsgPing MsgType = 0x09
	// MsgStats asks for the server's metrics snapshot as JSON.
	MsgStats MsgType = 0x0a
	// MsgGoodbye announces an orderly client disconnect.
	MsgGoodbye MsgType = 0x0b
)

// Server-to-client frames.
const (
	// MsgHelloOK accepts a handshake: version, server banner, flags.
	MsgHelloOK MsgType = 0x81
	// MsgPrepareOK acknowledges MsgPrepare: id, parameter names by slot.
	MsgPrepareOK MsgType = 0x82
	// MsgRowHeader starts a query result: column names.
	MsgRowHeader MsgType = 0x83
	// MsgRowBatch carries up to RowBatchSize rows of a result.
	MsgRowBatch MsgType = 0x84
	// MsgDone ends a successful request: affected-row count (execs) or
	// streamed-row count (queries).
	MsgDone MsgType = 0x85
	// MsgError ends a request with a classified failure: code, message. On
	// a query it may arrive after MsgRowHeader and any number of
	// MsgRowBatch frames — a mid-stream failure terminates the stream with
	// the typed error instead of silently truncating it.
	MsgError MsgType = 0x86
	// MsgPong answers MsgPing.
	MsgPong MsgType = 0x87
	// MsgStatsReply answers MsgStats with a JSON document.
	MsgStatsReply MsgType = 0x88
)

// Execute modes.
const (
	// ExecModeExec materialises the outcome server-side and returns only
	// the affected-row count (DML, DDL).
	ExecModeExec = 0
	// ExecModeQuery streams the result as RowHeader / RowBatch* / Done.
	ExecModeQuery = 1
)

// HelloOK flag bits.
const (
	// FlagReadOnly reports that the tenant's workbook has degraded to
	// read-only mode (DB.Health non-nil at handshake time).
	FlagReadOnly = 1 << 0
)

// RowBatchSize is the row count at which the server flushes a MsgRowBatch.
const RowBatchSize = 128

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", classifyIO(err))
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("wire: write frame payload: %w", classifyIO(err))
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing MaxFrameLen. io.EOF surfaces
// unwrapped when the peer closed cleanly between frames.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: read frame header: %w", classifyIO(err))
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d: %w", n, MaxFrameLen, dberr.ErrProtocol)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: read frame payload: %w", classifyIO(err))
	}
	return MsgType(hdr[0]), payload, nil
}

// classifyIO wraps a transport error under dberr.ErrIO so network failures
// classify like every other I/O failure.
func classifyIO(err error) error {
	return fmt.Errorf("%v: %w", err, dberr.ErrIO)
}

// Buf builds a frame payload.
type Buf struct {
	b []byte
}

// Bytes returns the encoded payload.
func (b *Buf) Bytes() []byte { return b.b }

// Reset clears the buffer for reuse.
func (b *Buf) Reset() { b.b = b.b[:0] }

// Uvarint appends an unsigned varint.
func (b *Buf) Uvarint(v uint64) { b.b = binary.AppendUvarint(b.b, v) }

// Byte appends one byte.
func (b *Buf) Byte(v byte) { b.b = append(b.b, v) }

// String appends a length-prefixed string.
func (b *Buf) String(s string) {
	b.Uvarint(uint64(len(s)))
	b.b = append(b.b, s...)
}

// Value appends an engine value: a kind tag, then the kind's encoding.
func (b *Buf) Value(v sheet.Value) {
	b.Byte(byte(v.Kind))
	switch v.Kind {
	case sheet.KindNumber:
		var num [8]byte
		binary.BigEndian.PutUint64(num[:], math.Float64bits(v.Num))
		b.b = append(b.b, num[:]...)
	case sheet.KindString:
		b.String(v.Str)
	case sheet.KindBool:
		if v.Bool {
			b.Byte(1)
		} else {
			b.Byte(0)
		}
	case sheet.KindError:
		b.String(v.Err)
	}
}

// Reader decodes a frame payload. The first malformed read latches an
// ErrProtocol-classified error; subsequent reads return zero values, so a
// decoder can run straight through and check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{b: payload} }

// Err returns the first decode failure, classified under dberr.ErrProtocol.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or malformed %s: %w", what, dberr.ErrProtocol)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Value reads an engine value.
func (r *Reader) Value() sheet.Value {
	kind := sheet.Kind(r.Byte())
	if r.err != nil {
		return sheet.Empty()
	}
	switch kind {
	case sheet.KindEmpty:
		return sheet.Empty()
	case sheet.KindNumber:
		if len(r.b) < 8 {
			r.fail("number value")
			return sheet.Empty()
		}
		bits := binary.BigEndian.Uint64(r.b)
		r.b = r.b[8:]
		return sheet.Number(math.Float64frombits(bits))
	case sheet.KindString:
		return sheet.String_(r.String())
	case sheet.KindBool:
		return sheet.Bool_(r.Byte() != 0)
	case sheet.KindError:
		return sheet.ErrorValue(r.String())
	default:
		r.fail("value kind")
		return sheet.Empty()
	}
}

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.b) }
