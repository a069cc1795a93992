package wire

import (
	"context"
	"errors"
	"fmt"

	"github.com/dataspread/dataspread/internal/dberr"
)

// Error codes. Every failure a server sends identifies the dberr sentinel
// the original error wrapped, so the client can re-attach it and
// errors.Is classifies identically on both sides of the wire. CodeUnknown
// carries failures outside the taxonomy (message only). Codes are part of
// the protocol: never renumber, only append.
const (
	CodeUnknown uint16 = iota
	CodeTableNotFound
	CodeTableExists
	CodeColumnNotFound
	CodeIndexNotFound
	CodeIndexExists
	CodeColumnExists
	CodeInvalidSchema
	CodeSheetNotFound
	CodeUniqueViolation
	CodeNotNullViolation
	CodeTypeMismatch
	CodeConflict
	CodeTxOpen
	CodeNoTx
	CodeParamCount
	CodeClosed
	CodeSyntax
	CodeUnsupported
	CodeValue
	CodeCorrupt
	CodeInternal
	CodeDiskFull
	CodeIO
	CodeReadOnly
	CodeAuth
	CodeOverloaded
	CodeCanceled
	CodeDeadline
	CodeProtocol
)

// codeTable orders sentinels most-specific first: ErrDiskFull wraps ErrIO,
// so it must be probed before ErrIO when classifying.
var codeTable = []struct {
	code uint16
	err  error
}{
	{CodeTableNotFound, dberr.ErrTableNotFound},
	{CodeTableExists, dberr.ErrTableExists},
	{CodeColumnNotFound, dberr.ErrColumnNotFound},
	{CodeIndexNotFound, dberr.ErrIndexNotFound},
	{CodeIndexExists, dberr.ErrIndexExists},
	{CodeColumnExists, dberr.ErrColumnExists},
	{CodeInvalidSchema, dberr.ErrInvalidSchema},
	{CodeSheetNotFound, dberr.ErrSheetNotFound},
	{CodeUniqueViolation, dberr.ErrUniqueViolation},
	{CodeNotNullViolation, dberr.ErrNotNullViolation},
	{CodeTypeMismatch, dberr.ErrTypeMismatch},
	{CodeConflict, dberr.ErrConflict},
	{CodeTxOpen, dberr.ErrTxOpen},
	{CodeNoTx, dberr.ErrNoTx},
	{CodeParamCount, dberr.ErrParamCount},
	{CodeClosed, dberr.ErrClosed},
	{CodeSyntax, dberr.ErrSyntax},
	{CodeUnsupported, dberr.ErrUnsupported},
	{CodeValue, dberr.ErrValue},
	{CodeCorrupt, dberr.ErrCorrupt},
	{CodeInternal, dberr.ErrInternal},
	{CodeReadOnly, dberr.ErrReadOnly},
	{CodeAuth, dberr.ErrAuth},
	{CodeProtocol, dberr.ErrProtocol},
	{CodeOverloaded, dberr.ErrOverloaded},
	{CodeDiskFull, dberr.ErrDiskFull},
	{CodeIO, dberr.ErrIO},
	{CodeCanceled, context.Canceled},
	{CodeDeadline, context.DeadlineExceeded},
}

// CodeFor classifies an error into its wire code: the first (most specific)
// sentinel the error wraps, or CodeUnknown.
func CodeFor(err error) uint16 {
	for _, e := range codeTable {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return CodeUnknown
}

// SentinelFor returns the sentinel a code names, or nil for CodeUnknown and
// codes from a newer protocol revision.
func SentinelFor(code uint16) error {
	for _, e := range codeTable {
		if e.code == code {
			return e.err
		}
	}
	return nil
}

// RemoteError is a server-reported failure re-materialised on the client: it
// carries the wire code and the server's message, and unwraps to the coded
// sentinel so errors.Is works across the network boundary.
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Msg }

// Unwrap returns the sentinel the code names (nil for CodeUnknown).
func (e *RemoteError) Unwrap() error { return SentinelFor(e.Code) }

// EncodeError builds a MsgError payload from an error.
func EncodeError(err error) []byte {
	var b Buf
	b.Uvarint(uint64(CodeFor(err)))
	b.String(err.Error())
	return b.Bytes()
}

// DecodeError parses a MsgError payload into a RemoteError.
func DecodeError(payload []byte) error {
	r := NewReader(payload)
	code := r.Uvarint()
	msg := r.String()
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: malformed error frame: %w", err)
	}
	return &RemoteError{Code: uint16(code), Msg: msg}
}
