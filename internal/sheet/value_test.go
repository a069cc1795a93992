package sheet

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Empty(), ""},
		{Number(42), "42"},
		{Number(3.5), "3.5"},
		{String_("hello"), "hello"},
		{Bool_(true), "TRUE"},
		{Bool_(false), "FALSE"},
		{ErrDiv0, "#DIV/0!"},
		{Errorf("#BAD(%d)", 3), "#BAD(3)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValuePredicates(t *testing.T) {
	if !Empty().IsEmpty() || Number(1).IsEmpty() {
		t.Error("IsEmpty wrong")
	}
	if !ErrRef.IsError() || Number(1).IsError() {
		t.Error("IsError wrong")
	}
	if !Number(1).IsNumber() || String_("1").IsNumber() {
		t.Error("IsNumber wrong")
	}
}

func TestAsNumberCoercion(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Number(2.5), 2.5, true},
		{Bool_(true), 1, true},
		{Bool_(false), 0, true},
		{Empty(), 0, true},
		{String_(" 17 "), 17, true},
		{String_("abc"), 0, false},
		{ErrDiv0, 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsNumber()
		if got != c.want || ok != c.ok {
			t.Errorf("AsNumber(%+v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

// TestAsNumberMatchesParseFloat: the first-byte reject in AsNumber changes
// no result — every text either side of it parses as ParseFloat says.
func TestAsNumberMatchesParseFloat(t *testing.T) {
	for _, in := range []string{"inf", "NaN", "0x1p-2", ".5", " -3 ", "1_0", "alpha", "",
		"+Inf", "-nan", "Infinity", "1e3", "e3", "  ", "\t7\n", "0x_1p0", "_1", "--1", "ninety"} {
		want, err := strconv.ParseFloat(strings.TrimSpace(in), 64)
		got, ok := String_(in).AsNumber()
		if ok != (err == nil) || (ok && got != want && !(math.IsNaN(got) && math.IsNaN(want))) {
			t.Errorf("AsNumber(%q) = %v,%v; ParseFloat gives %v,%v", in, got, ok, want, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { String_("alpha").AsNumber() }); n != 0 {
		t.Errorf("AsNumber on non-numeric text allocates %v times", n)
	}
}

func TestAsBoolCoercion(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
		ok   bool
	}{
		{Bool_(true), true, true},
		{Number(0), false, true},
		{Number(-3), true, true},
		{Empty(), false, true},
		{String_("true"), true, true},
		{String_("FALSE"), false, true},
		{String_("yes"), false, false},
		{ErrNA, false, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsBool()
		if got != c.want || ok != c.ok {
			t.Errorf("AsBool(%+v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Number(5).Equal(Number(5)) || Number(5).Equal(Number(6)) {
		t.Error("number equality wrong")
	}
	if !String_("Abc").Equal(String_("abc")) {
		t.Error("string equality should be case-insensitive")
	}
	if !Number(5).Equal(String_("5")) {
		t.Error("cross-kind numeric equality should hold")
	}
	if Number(5).Equal(String_("x")) {
		t.Error("number should not equal non-numeric string")
	}
	if !Empty().Equal(Empty()) {
		t.Error("empty equals empty")
	}
	if !ErrDiv0.Equal(ErrDiv0) || ErrDiv0.Equal(ErrRef) {
		t.Error("error equality wrong")
	}
}

func TestValueCompare(t *testing.T) {
	if Number(1).Compare(Number(2)) != -1 || Number(2).Compare(Number(1)) != 1 || Number(2).Compare(Number(2)) != 0 {
		t.Error("number compare wrong")
	}
	if Number(100).Compare(String_("a")) != -1 {
		t.Error("numbers should sort before strings")
	}
	if String_("zzz").Compare(Bool_(false)) != -1 {
		t.Error("strings should sort before booleans")
	}
	if String_("apple").Compare(String_("Banana")) != -1 {
		t.Error("string compare should be case-insensitive")
	}
	if Bool_(false).Compare(Bool_(true)) != -1 || Bool_(true).Compare(Bool_(true)) != 0 {
		t.Error("bool compare wrong")
	}
}

func TestValueCompareAntisymmetryProperty(t *testing.T) {
	gen := func(seed int64, kind uint8) Value {
		switch kind % 4 {
		case 0:
			return Number(float64(seed % 1000))
		case 1:
			return String_(ColName(int(seed % 100)))
		case 2:
			return Bool_(seed%2 == 0)
		default:
			return Empty()
		}
	}
	f := func(s1, s2 int64, k1, k2 uint8) bool {
		a, b := gen(s1, k1), gen(s2, k2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseLiteral(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", Empty()},
		{"  ", Empty()},
		{"42", Number(42)},
		{"-3.25", Number(-3.25)},
		{"1e3", Number(1000)},
		{"TRUE", Bool_(true)},
		{"false", Bool_(false)},
		{"hello world", String_("hello world")},
		{"12abc", String_("12abc")},
	}
	for _, c := range cases {
		got := ParseLiteral(c.in)
		if got.Kind != c.want.Kind || got.String() != c.want.String() {
			t.Errorf("ParseLiteral(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestFromAny(t *testing.T) {
	if v := FromAny(nil); !v.IsEmpty() {
		t.Error("nil should be empty")
	}
	if v := FromAny(7); v.Kind != KindNumber || v.Num != 7 {
		t.Error("int conversion wrong")
	}
	if v := FromAny(int64(9)); v.Num != 9 {
		t.Error("int64 conversion wrong")
	}
	if v := FromAny(2.5); v.Num != 2.5 {
		t.Error("float conversion wrong")
	}
	if v := FromAny("x"); v.Kind != KindString || v.Str != "x" {
		t.Error("string conversion wrong")
	}
	if v := FromAny(true); v.Kind != KindBool || !v.Bool {
		t.Error("bool conversion wrong")
	}
	if v := FromAny(Number(3)); v.Num != 3 {
		t.Error("Value passthrough wrong")
	}
	if v := FromAny(struct{ X int }{1}); v.Kind != KindString {
		t.Error("fallback should stringify")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindEmpty: "empty", KindNumber: "number", KindString: "string",
		KindBool: "bool", KindError: "error", Kind(99): "Kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
