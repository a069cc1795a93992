package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgType(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d payload %d bytes", i, typ, len(got))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{1, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(&buf); !errors.Is(err, dberr.ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []sheet.Value{
		sheet.Empty(),
		sheet.Number(0),
		sheet.Number(-math.Pi),
		sheet.Number(math.Inf(1)),
		sheet.String_(""),
		sheet.String_("héllo\x00world"),
		sheet.Bool_(true),
		sheet.Bool_(false),
		sheet.ErrorValue("#DIV/0!"),
	}
	var b Buf
	for _, v := range vals {
		b.Value(v)
	}
	r := NewReader(b.Bytes())
	for i, want := range vals {
		got := r.Value()
		if got != want {
			t.Fatalf("value %d: got %#v want %#v", i, got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
	// NaN compares by bits, not ==.
	b.Reset()
	b.Value(sheet.Number(math.NaN()))
	if got := NewReader(b.Bytes()).Value(); !math.IsNaN(got.Num) {
		t.Fatalf("NaN round-trip: %#v", got)
	}
}

func TestReaderLatchesMalformedInput(t *testing.T) {
	r := NewReader([]byte{byte(sheet.KindNumber), 1, 2}) // truncated float
	_ = r.Value()
	if err := r.Err(); !errors.Is(err, dberr.ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	// Subsequent reads stay safe.
	_ = r.String()
	_ = r.Uvarint()
	if err := r.Err(); !errors.Is(err, dberr.ErrProtocol) {
		t.Fatalf("latched err = %v", err)
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []error{
		fmt.Errorf("t1: %w", dberr.ErrTableNotFound),
		fmt.Errorf("over: %w", dberr.ErrOverloaded),
		fmt.Errorf("auth: %w", dberr.ErrAuth),
		fmt.Errorf("ro: %w", dberr.ErrReadOnly),
		fmt.Errorf("div: %w", dberr.ErrValue),
		fmt.Errorf("full: %w", dberr.ErrDiskFull),
		fmt.Errorf("io: %w", dberr.ErrIO),
		fmt.Errorf("ctx: %w", context.Canceled),
	}
	for _, orig := range cases {
		back := DecodeError(EncodeError(orig))
		var re *RemoteError
		if !errors.As(back, &re) {
			t.Fatalf("%v: not a RemoteError: %#v", orig, back)
		}
		if re.Msg != orig.Error() {
			t.Errorf("message %q -> %q", orig.Error(), re.Msg)
		}
		// The decoded error classifies identically.
		for _, sentinel := range []error{
			dberr.ErrTableNotFound, dberr.ErrOverloaded, dberr.ErrAuth,
			dberr.ErrReadOnly, dberr.ErrValue, dberr.ErrDiskFull, dberr.ErrIO,
			context.Canceled,
		} {
			if errors.Is(orig, sentinel) != errors.Is(back, sentinel) {
				t.Errorf("%v: classification of %v diverges across the wire", orig, sentinel)
			}
		}
	}
	// DiskFull must keep its ErrIO super-class through the wire.
	back := DecodeError(EncodeError(fmt.Errorf("x: %w", dberr.ErrDiskFull)))
	if !errors.Is(back, dberr.ErrIO) || !errors.Is(back, dberr.ErrDiskFull) {
		t.Fatalf("disk-full classification lost: %v", back)
	}
	// Unknown code: message survives, no sentinel.
	unk := DecodeError(EncodeError(errors.New("weird")))
	if unk.Error() != "weird" {
		t.Fatalf("unknown error message: %q", unk.Error())
	}
}
