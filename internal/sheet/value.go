package sheet

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a spreadsheet cell value can take.
// Spreadsheets are dynamically typed: the same column may hold numbers and
// strings, and DataSpread infers relational types from observed values when a
// range is exported to the database.
type Kind int

const (
	// KindEmpty is the value of a cell that has never been set or was cleared.
	KindEmpty Kind = iota
	// KindNumber is a 64-bit floating point value (spreadsheet numerics).
	KindNumber
	// KindString is a text value.
	KindString
	// KindBool is a boolean value.
	KindBool
	// KindError is an evaluation error such as #DIV/0! or #REF!.
	KindError
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindError:
		return "error"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed spreadsheet value.
//
// dslint:cell
type Value struct {
	Kind Kind
	Num  float64
	Str  string
	Bool bool
	Err  string
}

// Empty returns the empty value.
func Empty() Value { return Value{Kind: KindEmpty} }

// Number wraps a float64 as a Value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// String_ wraps a string as a Value. The trailing underscore avoids clashing
// with the fmt.Stringer method on Value.
func String_(s string) Value { return Value{Kind: KindString, Str: s} }

// Bool_ wraps a bool as a Value.
func Bool_(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Errorf builds an error value with a formatted message.
func Errorf(format string, args ...any) Value {
	return Value{Kind: KindError, Err: fmt.Sprintf(format, args...)}
}

// ErrorValue builds an error value from a plain message.
func ErrorValue(msg string) Value { return Value{Kind: KindError, Err: msg} }

// Common spreadsheet error values.
var (
	ErrDiv0  = Value{Kind: KindError, Err: "#DIV/0!"}
	ErrRef   = Value{Kind: KindError, Err: "#REF!"}
	ErrValue = Value{Kind: KindError, Err: "#VALUE!"}
	ErrName  = Value{Kind: KindError, Err: "#NAME?"}
	ErrNA    = Value{Kind: KindError, Err: "#N/A"}
)

// IsEmpty reports whether the value is the empty value.
func (v Value) IsEmpty() bool { return v.Kind == KindEmpty }

// IsError reports whether the value is an error value.
func (v Value) IsError() bool { return v.Kind == KindError }

// IsNumber reports whether the value is numeric.
func (v Value) IsNumber() bool { return v.Kind == KindNumber }

// String renders the value the way a spreadsheet would display it.
func (v Value) String() string {
	switch v.Kind {
	case KindEmpty:
		return ""
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	case KindError:
		return v.Err
	default:
		return ""
	}
}

// AsNumber coerces the value to a float64 following spreadsheet rules:
// numbers pass through, booleans become 0/1, numeric-looking strings parse,
// empty cells are 0, and everything else fails.
func (v Value) AsNumber() (float64, bool) {
	switch v.Kind {
	case KindNumber:
		return v.Num, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case KindEmpty:
		return 0, true
	case KindString:
		t := strings.TrimSpace(v.Str)
		// Every string ParseFloat accepts starts with one of these bytes;
		// rejecting the rest first spares the *NumError a failed parse
		// allocates, which zone summaries and GROUP BY keys pay per text cell.
		if t == "" || strings.IndexByte("+-.0123456789iInN", t[0]) < 0 {
			return 0, false
		}
		f, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsBool coerces the value to a boolean following spreadsheet rules: nonzero
// numbers are true, "TRUE"/"FALSE" strings parse case-insensitively, empty is
// false.
func (v Value) AsBool() (bool, bool) {
	switch v.Kind {
	case KindBool:
		return v.Bool, true
	case KindNumber:
		return v.Num != 0, true
	case KindEmpty:
		return false, true
	case KindString:
		switch strings.ToUpper(strings.TrimSpace(v.Str)) {
		case "TRUE":
			return true, true
		case "FALSE":
			return false, true
		}
		return false, false
	default:
		return false, false
	}
}

// AsString renders the value as text; identical to String but provided for
// symmetry with the other coercions.
func (v Value) AsString() string { return v.String() }

// Equal reports spreadsheet equality between two values: numbers compare
// numerically, strings case-insensitively (as Excel's "=" does), booleans and
// errors exactly, and cross-kind comparisons attempt numeric coercion before
// failing.
func (v Value) Equal(o Value) bool {
	if v.Kind == o.Kind {
		switch v.Kind {
		case KindEmpty:
			return true
		case KindNumber:
			return v.Num == o.Num
		case KindString:
			return strings.EqualFold(v.Str, o.Str)
		case KindBool:
			return v.Bool == o.Bool
		case KindError:
			return v.Err == o.Err
		}
	}
	a, okA := v.AsNumber()
	b, okB := o.AsNumber()
	if okA && okB {
		return a == b
	}
	return false
}

// Compare orders two values. Numbers order before strings, strings before
// booleans, mirroring spreadsheet sort semantics. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	rank := func(k Kind) int {
		switch k {
		case KindNumber, KindEmpty:
			return 0
		case KindString:
			return 1
		case KindBool:
			return 2
		default:
			return 3
		}
	}
	rv, ro := rank(v.Kind), rank(o.Kind)
	if rv != ro {
		if rv < ro {
			return -1
		}
		return 1
	}
	switch rv {
	case 0:
		a, _ := v.AsNumber()
		b, _ := o.AsNumber()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case 1:
		return strings.Compare(strings.ToLower(v.Str), strings.ToLower(o.Str))
	case 2:
		switch {
		case !v.Bool && o.Bool:
			return -1
		case v.Bool && !o.Bool:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(v.Err, o.Err)
	}
}

// ParseLiteral converts raw user input into a Value using spreadsheet typing
// rules: numeric-looking text becomes a number, TRUE/FALSE become booleans,
// everything else is a string. Empty input is the empty value.
func ParseLiteral(s string) Value {
	t := strings.TrimSpace(s)
	if t == "" {
		return Empty()
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Number(f)
	}
	switch strings.ToUpper(t) {
	case "TRUE":
		return Bool_(true)
	case "FALSE":
		return Bool_(false)
	}
	return String_(s)
}

// FromAny converts a Go value into a sheet Value. Supported inputs are the
// numeric types, string, bool, nil, and Value itself; anything else is
// stringified with fmt.Sprint.
func FromAny(x any) Value {
	switch t := x.(type) {
	case nil:
		return Empty()
	case Value:
		return t
	case float64:
		return Number(t)
	case float32:
		return Number(float64(t))
	case int:
		return Number(float64(t))
	case int32:
		return Number(float64(t))
	case int64:
		return Number(float64(t))
	case uint:
		return Number(float64(t))
	case string:
		return String_(t)
	case bool:
		return Bool_(t)
	default:
		return String_(fmt.Sprint(t))
	}
}
