// layers.go is the harness's only door into internal/…: every engine entry
// point the benchmark times from outside is named in this file, so a later PR
// that renames or removes one breaks the build here and nowhere else. The
// rest of the harness reaches the engine through the public dataspread and
// client packages and through the aliases and thin wrappers below; it never
// imports an internal package itself.

package main

import (
	"bytes"
	"fmt"
	"io"

	"github.com/dataspread/dataspread"
	//lint:ignore apistable embedded workloads need Options.FS, BufferPoolPages and MaterializeAllLimit, which only core.Options carries
	"github.com/dataspread/dataspread/internal/core"
	//lint:ignore apistable interfacemgr.* counters are diffed across the measured window
	"github.com/dataspread/dataspread/internal/interfacemgr"
	//lint:ignore apistable positional.* probes time a stand-alone index of the bound table's length
	"github.com/dataspread/dataspread/internal/index/positional"
	//lint:ignore apistable served_oltp boots an in-process dataspreadd on a loopback listener
	"github.com/dataspread/dataspread/internal/server"
	//lint:ignore apistable compute/interfacemgr probes address cells by sheet.Address
	"github.com/dataspread/dataspread/internal/sheet"
	//lint:ignore apistable sqlexec.* probes execute prepared statements below core
	"github.com/dataspread/dataspread/internal/sqlexec"
	//lint:ignore apistable sqlparser.parse_ns_per_stmt times the parser alone
	"github.com/dataspread/dataspread/internal/sqlparser"
	//lint:ignore apistable pager.* probes name page ids
	"github.com/dataspread/dataspread/internal/storage/pager"
	//lint:ignore apistable tablestore.* and index.* probes name row ids
	"github.com/dataspread/dataspread/internal/storage/tablestore"
	//lint:ignore apistable the counting / crash-discarding filesystem implements vfs.FS
	"github.com/dataspread/dataspread/internal/storage/vfs"
	//lint:ignore apistable wire.* probes push the workload's own frames through the codec
	"github.com/dataspread/dataspread/internal/wire"
)

// Named engine types the harness declares variables of.
type (
	workbook          = core.DataSpread
	coreOptions       = core.Options
	coreConn          = core.Conn
	preparedStmt      = sqlexec.Prepared
	execSession       = sqlexec.Session
	rowID             = tablestore.RowID
	poolStats         = pager.Stats
	posIndex          = positional.Index
	netServer         = server.Server
	serverTenantStats = server.TenantStats
	interfaceStats    = interfacemgr.Stats
	serverConfig      = server.Config
	fsys              = vfs.FS
	fsFile            = vfs.File
	cellAddress       = sheet.Address
)

func openWorkbook(path string, o coreOptions) (*workbook, error) { return core.OpenFile(path, o) }

func newWorkbook(o coreOptions) *workbook { return core.New(o) }

func osFS() fsys { return vfs.OS() }

func newServer(c serverConfig) (*netServer, error) { return server.New(c) }

func parseSQL(sql string) error {
	_, err := sqlparser.Parse(sql)
	return err
}

func addr(row, col int) cellAddress { return sheet.Addr(row, col) }

// newPositional bulk-loads a stand-alone positional index of n entries, the
// structure a table binding keeps between display position and RowID.
func newPositional(n int) (*posIndex, error) {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	ix := positional.New()
	return ix, ix.BulkLoad(ids)
}

// --- wire frames -------------------------------------------------------------
//
// The builders mirror client.Stmt.Exec/Query and the server's reply path, so
// the codec probe moves exactly the payloads the served workload moves.

// wireOp is one request/response exchange as frames.
type wireOp struct {
	request  []byte   // EXECUTE payload
	replies  [][]byte // ROW_HEADER, ROW_BATCH…, DONE payloads
	replyTyp []wire.MsgType
}

func buildWireOp(stmtID uint64, query bool, args []dataspread.Value, cols []string, rows [][]dataspread.Value, affected int) wireOp {
	var b wire.Buf
	b.Uvarint(stmtID)
	if query {
		b.Byte(wire.ExecModeQuery)
	} else {
		b.Byte(wire.ExecModeExec)
	}
	b.Uvarint(uint64(len(args)))
	for _, v := range args {
		b.Value(v)
	}
	b.Uvarint(0) // no named arguments
	op := wireOp{request: append([]byte(nil), b.Bytes()...)}
	add := func(t wire.MsgType, p []byte) {
		op.replies = append(op.replies, append([]byte(nil), p...))
		op.replyTyp = append(op.replyTyp, t)
	}
	done := affected
	if query {
		var h wire.Buf
		h.Uvarint(uint64(len(cols)))
		for _, c := range cols {
			h.String(c)
		}
		add(wire.MsgRowHeader, h.Bytes())
		for start := 0; start < len(rows); start += wire.RowBatchSize {
			end := start + wire.RowBatchSize
			if end > len(rows) {
				end = len(rows)
			}
			var rb wire.Buf
			rb.Uvarint(uint64(end - start))
			for _, row := range rows[start:end] {
				for _, v := range row {
					rb.Value(v)
				}
			}
			add(wire.MsgRowBatch, rb.Bytes())
		}
		done = len(rows)
	}
	var d wire.Buf
	d.Uvarint(uint64(done))
	add(wire.MsgDone, d.Bytes())
	return op
}

// encode writes every frame of the exchange into buf through wire.WriteFrame
// and returns the frame count.
func (op wireOp) encode(buf *bytes.Buffer) (int, error) {
	if err := wire.WriteFrame(buf, wire.MsgExecute, op.request); err != nil {
		return 0, err
	}
	for i, p := range op.replies {
		if err := wire.WriteFrame(buf, op.replyTyp[i], p); err != nil {
			return 0, err
		}
	}
	return 1 + len(op.replies), nil
}

// decodeFrames reads frames through wire.ReadFrame until r is drained and
// decodes every value they carry, as the client's Rows.Next does.
func decodeFrames(r io.Reader, ncols int) (int, error) {
	frames := 0
	for {
		typ, payload, err := wire.ReadFrame(r)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames++
		rd := wire.NewReader(payload)
		switch typ {
		case wire.MsgExecute:
			rd.Uvarint()
			rd.Byte()
			for n := rd.Uvarint(); n > 0; n-- {
				rd.Value()
			}
			rd.Uvarint()
		case wire.MsgRowHeader:
			for n := rd.Uvarint(); n > 0; n-- {
				_ = rd.String()
			}
		case wire.MsgRowBatch:
			for n := rd.Uvarint() * uint64(ncols); n > 0; n-- {
				rd.Value()
			}
		case wire.MsgDone:
			rd.Uvarint()
		}
		if err := rd.Err(); err != nil {
			return frames, fmt.Errorf("bench: decoding frame %#x: %w", typ, err)
		}
	}
}
