package sqlexec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlparser"
)

// Expression compilation. The executor used to walk the parsed AST for every
// row, resolving each column reference by a linear, case-folding name search
// over the relation schema. compileExpr instead binds an expression against
// a fixed schema once per statement execution, producing a boundExpr tree in
// which column references are slot indexes, RANGEVALUE parameters are folded
// to the constants they hold for this execution, and aggregate calls are
// slots into the per-group accumulator results. Per-row evaluation is then a
// direct tree walk with no name resolution and no formatting.

// execEnv is the per-execution context threaded through planning and
// evaluation: the spreadsheet accessor for positional constructs, the
// argument values bound to this execution's '?' placeholders, and the
// cancellation poll over the caller's context.
type execEnv struct {
	sheets SheetAccessor
	params []sheet.Value
	// cancel is never ticked itself: every row loop polls its own copy
	// (poller), so concurrent pullers share no counter. Stage boundaries
	// call cancel.now().
	cancel poller
	// undo collects the steps that reverse this statement's changes
	// (undo.go).
	undo undoLog
}

// ctxCheckInterval is how many processed rows pass between context polls; a
// power of two keeps the modulo cheap on the per-row path.
const ctxCheckInterval = 1024

// poller is the cooperative cancellation poll of one row loop: scan, join,
// fold, projection and DML loops each own one and call check once per row,
// so a cancelled query stops within ctxCheckInterval rows of any loop.
type poller struct {
	ctx   context.Context
	ticks int
}

// poller returns a fresh poll for one row loop of this execution.
func (e *execEnv) poller() poller { return e.cancel }

// check polls the context every ctxCheckInterval calls.
//
// dslint:poll
func (p *poller) check() error {
	p.ticks++
	if p.ticks%ctxCheckInterval != 0 {
		return nil
	}
	return p.now()
}

// now polls the context unconditionally (stage boundaries).
//
// dslint:poll
func (p *poller) now() error {
	if p.ctx == nil {
		return nil
	}
	select {
	case <-p.ctx.Done():
		return p.ctx.Err()
	default:
		return nil
	}
}

// newRowCtx builds an evaluation context carrying this execution's
// spreadsheet accessor and bound parameters.
func (e *execEnv) newRowCtx() *rowCtx {
	if e == nil {
		return &rowCtx{}
	}
	return &rowCtx{sheets: e.sheets, params: e.params}
}

// compileEnv builds a compilation environment over the given schema.
func (e *execEnv) compileEnv(cols []colDesc) *compileEnv {
	var sheets SheetAccessor
	if e != nil {
		sheets = e.sheets
	}
	return &compileEnv{cols: cols, sheets: sheets}
}

// compileEnv is the compilation context: the input schema plus, inside
// grouped projections, the aggregate registry.
type compileEnv struct {
	cols   []colDesc
	noRel  bool // table-less context: column references are errors
	sheets SheetAccessor
	aggs   *aggRegistry // non-nil only in aggregation contexts
	inAgg  bool         // inside an aggregate argument (nested aggregates are invalid)
}

// rowCtx carries everything a bound expression reads at evaluation time.
type rowCtx struct {
	row    []sheet.Value
	sheets SheetAccessor
	params []sheet.Value // '?' placeholder arguments of this execution
	aggs   []sheet.Value // aggregate results of the current group, by spec slot
}

// boundExpr is an expression compiled against a fixed schema.
type boundExpr interface {
	eval(ctx *rowCtx) (sheet.Value, error)
}

// findColumn resolves a (possibly table-qualified) column name against a
// schema, with the same ambiguity and unknown-column errors the executor has
// always produced. table and name must already be lower-cased.
func findColumn(cols []colDesc, table, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if c.name != name {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlexec: column reference %q is ambiguous: %w", name, dberr.ErrSyntax)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sqlexec: unknown column %s.%s: %w", table, name, dberr.ErrColumnNotFound)
		}
		return 0, fmt.Errorf("sqlexec: unknown column %q: %w", name, dberr.ErrColumnNotFound)
	}
	return found, nil
}

// compileExpr binds one expression against the environment's schema.
func compileExpr(e sqlparser.Expr, env *compileEnv) (boundExpr, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return bValue{v: x.Value}, nil
	case *sqlparser.NullLiteral:
		return bValue{v: sheet.Empty()}, nil
	case *sqlparser.ColumnRef:
		if env.noRel {
			return nil, fmt.Errorf("sqlexec: column %q referenced outside a FROM context: %w", x.Name, dberr.ErrSyntax)
		}
		i, err := findColumn(env.cols, strings.ToLower(x.Table), strings.ToLower(x.Name))
		if err != nil {
			return nil, err
		}
		return bCol{idx: i}, nil
	case *sqlparser.Placeholder:
		// Placeholders stay symbolic through compilation and read their
		// argument at evaluation time, so one compiled statement serves
		// every execution's bindings.
		return bParam{idx: x.Index}, nil
	case *sqlparser.RangeValueExpr:
		// RANGEVALUE is row-independent: fold it to the constant it holds
		// for this execution instead of re-reading the sheet per row.
		if env.sheets == nil {
			return nil, fmt.Errorf("sqlexec: RANGEVALUE requires a spreadsheet context: %w", dberr.ErrUnsupported)
		}
		v, err := env.sheets.RangeValue(x.Ref)
		if err != nil {
			return nil, err
		}
		return bValue{v: v}, nil
	case *sqlparser.UnaryExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-", "NOT":
			return &bUnary{op: x.Op, x: sub}, nil
		}
		return nil, fmt.Errorf("sqlexec: unknown unary operator %q: %w", x.Op, dberr.ErrSyntax)
	case *sqlparser.BinaryExpr:
		l, err := compileExpr(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.Right, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "||", "+", "-", "*", "/", "%":
			return &bBinary{op: x.Op, l: l, r: r}, nil
		}
		return nil, fmt.Errorf("sqlexec: unknown operator %q: %w", x.Op, dberr.ErrSyntax)
	case *sqlparser.FuncCall:
		if isAggregateFunc(x.Name) {
			return compileAggregate(x, env)
		}
		return compileScalarFunc(x, env)
	case *sqlparser.InExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		list := make([]boundExpr, len(x.List))
		for i, item := range x.List {
			if list[i], err = compileExpr(item, env); err != nil {
				return nil, err
			}
		}
		return &bIn{x: sub, list: list, not: x.Not}, nil
	case *sqlparser.IsNullExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		return &bIsNull{x: sub, not: x.Not}, nil
	case *sqlparser.BetweenExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(x.Lo, env)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(x.Hi, env)
		if err != nil {
			return nil, err
		}
		return &bBetween{x: sub, lo: lo, hi: hi, not: x.Not}, nil
	case *sqlparser.LikeExpr:
		sub, err := compileExpr(x.X, env)
		if err != nil {
			return nil, err
		}
		pat, err := compileExpr(x.Pattern, env)
		if err != nil {
			return nil, err
		}
		return &bLike{x: sub, pattern: pat, not: x.Not}, nil
	case *sqlparser.CaseExpr:
		return compileCase(x, env)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported expression %T: %w", e, dberr.ErrUnsupported)
	}
}

// evalBoundPredicate evaluates a compiled boolean expression; NULL counts as
// false.
func evalBoundPredicate(be boundExpr, ctx *rowCtx) (bool, error) {
	v, err := be.eval(ctx)
	if err != nil {
		return false, err
	}
	if isNull(v) {
		return false, nil
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("sqlexec: predicate did not evaluate to a boolean (got %q): %w", v.String(), dberr.ErrValue)
	}
	return b, nil
}

// --- bound nodes ---

type bValue struct{ v sheet.Value }

func (b bValue) eval(*rowCtx) (sheet.Value, error) { return b.v, nil }

// bParam reads the idx-th bound argument of the current execution.
type bParam struct{ idx int }

func (b bParam) eval(ctx *rowCtx) (sheet.Value, error) {
	if b.idx >= len(ctx.params) {
		return sheet.Empty(), fmt.Errorf("sqlexec: parameter %d is not bound: %w", b.idx+1, dberr.ErrParamCount)
	}
	return ctx.params[b.idx], nil
}

type bCol struct{ idx int }

func (b bCol) eval(ctx *rowCtx) (sheet.Value, error) {
	if ctx.row == nil || b.idx >= len(ctx.row) {
		return sheet.Empty(), nil
	}
	return ctx.row[b.idx], nil
}

type bUnary struct {
	op string
	x  boundExpr
}

func (b *bUnary) eval(ctx *rowCtx) (sheet.Value, error) {
	v, err := b.x.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	switch b.op {
	case "-":
		if isNull(v) {
			return sheet.Empty(), nil
		}
		f, ok := v.AsNumber()
		if !ok {
			return sheet.Empty(), fmt.Errorf("sqlexec: cannot negate %q: %w", v.String(), dberr.ErrValue)
		}
		return sheet.Number(-f), nil
	default: // NOT
		if isNull(v) {
			return sheet.Empty(), nil
		}
		bv, ok := v.AsBool()
		if !ok {
			return sheet.Empty(), fmt.Errorf("sqlexec: NOT applied to non-boolean %q: %w", v.String(), dberr.ErrValue)
		}
		return sheet.Bool_(!bv), nil
	}
}

type bBinary struct {
	op   string
	l, r boundExpr
}

func (b *bBinary) eval(ctx *rowCtx) (sheet.Value, error) {
	// AND/OR get short-circuit evaluation.
	switch b.op {
	case "AND", "OR":
		l, err := b.l.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		lb, lok := l.AsBool()
		if b.op == "AND" && lok && !lb {
			return sheet.Bool_(false), nil
		}
		if b.op == "OR" && lok && lb {
			return sheet.Bool_(true), nil
		}
		r, err := b.r.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		rb, rok := r.AsBool()
		if !lok || !rok {
			return sheet.Empty(), nil
		}
		if b.op == "AND" {
			return sheet.Bool_(lb && rb), nil
		}
		return sheet.Bool_(lb || rb), nil
	}
	l, err := b.l.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	r, err := b.r.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	switch b.op {
	case "=", "<>", "<", "<=", ">", ">=":
		if isNull(l) || isNull(r) {
			return sheet.Empty(), nil // SQL: comparisons with NULL are unknown
		}
		var res bool
		switch b.op {
		case "=":
			res = l.Equal(r)
		case "<>":
			res = !l.Equal(r)
		case "<":
			res = l.Compare(r) < 0
		case "<=":
			res = l.Compare(r) <= 0
		case ">":
			res = l.Compare(r) > 0
		case ">=":
			res = l.Compare(r) >= 0
		}
		return sheet.Bool_(res), nil
	case "||":
		if isNull(l) || isNull(r) {
			return sheet.Empty(), nil
		}
		return sheet.String_(l.AsString() + r.AsString()), nil
	default: // arithmetic
		if isNull(l) || isNull(r) {
			return sheet.Empty(), nil
		}
		a, okA := l.AsNumber()
		c, okB := r.AsNumber()
		if !okA || !okB {
			return sheet.Empty(), fmt.Errorf("sqlexec: arithmetic on non-numeric values %q, %q: %w", l.String(), r.String(), dberr.ErrValue)
		}
		switch b.op {
		case "+":
			return sheet.Number(a + c), nil
		case "-":
			return sheet.Number(a - c), nil
		case "*":
			return sheet.Number(a * c), nil
		case "/":
			if c == 0 {
				return sheet.Empty(), fmt.Errorf("sqlexec: division by zero: %w", dberr.ErrValue)
			}
			return sheet.Number(a / c), nil
		default: // %
			if c == 0 {
				return sheet.Empty(), fmt.Errorf("sqlexec: division by zero: %w", dberr.ErrValue)
			}
			return sheet.Number(math.Mod(a, c)), nil
		}
	}
}

type bIn struct {
	x    boundExpr
	list []boundExpr
	not  bool
}

func (b *bIn) eval(ctx *rowCtx) (sheet.Value, error) {
	v, err := b.x.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	if isNull(v) {
		return sheet.Empty(), nil
	}
	for _, item := range b.list {
		iv, err := item.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		if v.Equal(iv) {
			return sheet.Bool_(!b.not), nil
		}
	}
	return sheet.Bool_(b.not), nil
}

type bIsNull struct {
	x   boundExpr
	not bool
}

func (b *bIsNull) eval(ctx *rowCtx) (sheet.Value, error) {
	v, err := b.x.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	return sheet.Bool_(isNull(v) != b.not), nil
}

type bBetween struct {
	x, lo, hi boundExpr
	not       bool
}

func (b *bBetween) eval(ctx *rowCtx) (sheet.Value, error) {
	v, err := b.x.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	lo, err := b.lo.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	hi, err := b.hi.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	if isNull(v) || isNull(lo) || isNull(hi) {
		return sheet.Empty(), nil
	}
	in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
	return sheet.Bool_(in != b.not), nil
}

type bLike struct {
	x, pattern boundExpr
	not        bool
}

func (b *bLike) eval(ctx *rowCtx) (sheet.Value, error) {
	v, err := b.x.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	p, err := b.pattern.eval(ctx)
	if err != nil {
		return sheet.Empty(), err
	}
	if isNull(v) || isNull(p) {
		return sheet.Empty(), nil
	}
	m := likeMatch(v.AsString(), p.AsString())
	return sheet.Bool_(m != b.not), nil
}

type bCaseWhen struct {
	when, then boundExpr
}

type bCase struct {
	operand boundExpr // nil for searched CASE
	whens   []bCaseWhen
	els     boundExpr // nil when absent
}

func compileCase(x *sqlparser.CaseExpr, env *compileEnv) (boundExpr, error) {
	out := &bCase{}
	var err error
	if x.Operand != nil {
		if out.operand, err = compileExpr(x.Operand, env); err != nil {
			return nil, err
		}
	}
	for _, w := range x.Whens {
		var bw bCaseWhen
		if bw.when, err = compileExpr(w.When, env); err != nil {
			return nil, err
		}
		if bw.then, err = compileExpr(w.Then, env); err != nil {
			return nil, err
		}
		out.whens = append(out.whens, bw)
	}
	if x.Else != nil {
		if out.els, err = compileExpr(x.Else, env); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *bCase) eval(ctx *rowCtx) (sheet.Value, error) {
	var operand sheet.Value
	hasOperand := b.operand != nil
	if hasOperand {
		v, err := b.operand.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		operand = v
	}
	for _, w := range b.whens {
		cond, err := w.when.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		matched := false
		if hasOperand {
			matched = operand.Equal(cond)
		} else if bv, ok := cond.AsBool(); ok {
			matched = bv
		}
		if matched {
			return w.then.eval(ctx)
		}
	}
	if b.els != nil {
		return b.els.eval(ctx)
	}
	return sheet.Empty(), nil
}

// --- scalar functions ---

type bScalar struct {
	name string // upper-cased
	args []boundExpr
	buf  []sheet.Value // evaluation scratch; bound trees are single-threaded
}

func compileScalarFunc(x *sqlparser.FuncCall, env *compileEnv) (boundExpr, error) {
	name := strings.ToUpper(x.Name)
	args := make([]boundExpr, len(x.Args))
	var err error
	for i, a := range x.Args {
		if args[i], err = compileExpr(a, env); err != nil {
			return nil, err
		}
	}
	fixed := map[string]int{
		"UPPER": 1, "LOWER": 1, "LENGTH": 1, "LEN": 1,
		"ABS": 1, "FLOOR": 1, "CEIL": 1, "CEILING": 1, "SQRT": 1,
		"NULLIF": 2,
	}
	switch {
	case fixed[name] > 0:
		if len(args) != fixed[name] {
			return nil, fmt.Errorf("sqlexec: %s expects %d argument(s), got %d: %w", name, fixed[name], len(args), dberr.ErrSyntax)
		}
	case name == "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return nil, fmt.Errorf("sqlexec: ROUND expects 1 or 2 arguments: %w", dberr.ErrSyntax)
		}
	case name == "SUBSTR" || name == "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return nil, fmt.Errorf("sqlexec: SUBSTR expects 2 or 3 arguments: %w", dberr.ErrSyntax)
		}
	case name == "CONCAT" || name == "COALESCE":
		// variadic
	default:
		return nil, fmt.Errorf("sqlexec: unknown function %q: %w", name, dberr.ErrSyntax)
	}
	return &bScalar{name: name, args: args, buf: make([]sheet.Value, len(args))}, nil
}

func (b *bScalar) eval(ctx *rowCtx) (sheet.Value, error) {
	args := b.buf
	for i, a := range b.args {
		v, err := a.eval(ctx)
		if err != nil {
			return sheet.Empty(), err
		}
		args[i] = v
	}
	switch b.name {
	case "UPPER":
		if isNull(args[0]) {
			return sheet.Empty(), nil
		}
		return sheet.String_(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if isNull(args[0]) {
			return sheet.Empty(), nil
		}
		return sheet.String_(strings.ToLower(args[0].AsString())), nil
	case "LENGTH", "LEN":
		if isNull(args[0]) {
			return sheet.Empty(), nil
		}
		return sheet.Number(float64(len([]rune(args[0].AsString())))), nil
	case "ABS":
		return numericFunc1(args[0], math.Abs)
	case "FLOOR":
		return numericFunc1(args[0], math.Floor)
	case "CEIL", "CEILING":
		return numericFunc1(args[0], math.Ceil)
	case "SQRT":
		return numericFunc1(args[0], math.Sqrt)
	case "ROUND":
		if isNull(args[0]) {
			return sheet.Empty(), nil
		}
		f, ok := args[0].AsNumber()
		if !ok {
			return sheet.Empty(), fmt.Errorf("sqlexec: ROUND of non-numeric value: %w", dberr.ErrValue)
		}
		digits := 0.0
		if len(args) == 2 {
			digits, _ = args[1].AsNumber()
		}
		scale := math.Pow(10, digits)
		return sheet.Number(math.Round(f*scale) / scale), nil
	case "SUBSTR", "SUBSTRING":
		if isNull(args[0]) {
			return sheet.Empty(), nil
		}
		s := []rune(args[0].AsString())
		start, _ := args[1].AsNumber()
		i := int(start) - 1 // SQL SUBSTR is 1-based
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			i = len(s)
		}
		j := len(s)
		if len(args) == 3 {
			l, _ := args[2].AsNumber()
			j = i + int(l)
			if j > len(s) {
				j = len(s)
			}
			if j < i {
				j = i
			}
		}
		return sheet.String_(string(s[i:j])), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if !isNull(a) {
				sb.WriteString(a.AsString())
			}
		}
		return sheet.String_(sb.String()), nil
	case "COALESCE":
		for _, a := range args {
			if !isNull(a) {
				return a, nil
			}
		}
		return sheet.Empty(), nil
	default: // NULLIF
		if args[0].Equal(args[1]) {
			return sheet.Empty(), nil
		}
		return args[0], nil
	}
}

func numericFunc1(v sheet.Value, fn func(float64) float64) (sheet.Value, error) {
	if isNull(v) {
		return sheet.Empty(), nil
	}
	f, ok := v.AsNumber()
	if !ok {
		return sheet.Empty(), fmt.Errorf("sqlexec: numeric function applied to %q: %w", v.String(), dberr.ErrValue)
	}
	return sheet.Number(fn(f)), nil
}

// --- aggregates ---

// aggRegistry collects the distinct aggregate calls of a grouped projection
// so the executor can accumulate them in one streaming pass per group.
type aggRegistry struct {
	specs []*aggSpec
	index map[*sqlparser.FuncCall]int
}

// aggSpec is one aggregate call: its kind, compiled argument and modifiers.
type aggSpec struct {
	name     string // COUNT, SUM, AVG, MIN or MAX
	arg      boundExpr
	star     bool
	distinct bool
}

// bAggRef reads the accumulated result of aggregate slot from the group
// context.
type bAggRef struct{ slot int }

func (b bAggRef) eval(ctx *rowCtx) (sheet.Value, error) {
	if b.slot >= len(ctx.aggs) {
		return sheet.Empty(), nil
	}
	return ctx.aggs[b.slot], nil
}

// compileAggregate registers an aggregate call and returns the slot
// reference that will read its per-group result.
func compileAggregate(x *sqlparser.FuncCall, env *compileEnv) (boundExpr, error) {
	if env.aggs == nil || env.inAgg {
		return nil, fmt.Errorf("sqlexec: aggregate %s used outside an aggregation context: %w", x.Name, dberr.ErrSyntax)
	}
	if slot, ok := env.aggs.index[x]; ok {
		return bAggRef{slot: slot}, nil
	}
	name := strings.ToUpper(x.Name)
	spec := &aggSpec{name: name, star: x.Star, distinct: x.Distinct}
	if x.Star {
		if name != "COUNT" {
			return nil, fmt.Errorf("sqlexec: %s(*) is not valid: %w", name, dberr.ErrSyntax)
		}
	} else {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqlexec: %s expects exactly one argument: %w", name, dberr.ErrSyntax)
		}
		argEnv := *env
		argEnv.inAgg = true
		arg, err := compileExpr(x.Args[0], &argEnv)
		if err != nil {
			return nil, err
		}
		spec.arg = arg
	}
	slot := len(env.aggs.specs)
	env.aggs.specs = append(env.aggs.specs, spec)
	if env.aggs.index == nil {
		env.aggs.index = make(map[*sqlparser.FuncCall]int)
	}
	env.aggs.index[x] = slot
	return bAggRef{slot: slot}, nil
}

// aggState is the running accumulator of one aggregate over one group.
type aggState struct {
	n       int
	sum     float64
	best    sheet.Value
	hasBest bool
	seen    map[normValue]struct{} // DISTINCT filter
}

// update folds one input row into the accumulator. SQL aggregates ignore
// NULL inputs; COUNT(*) counts rows regardless.
func (sp *aggSpec) update(st *aggState, ctx *rowCtx) error {
	if sp.star {
		st.n++
		return nil
	}
	v, err := sp.arg.eval(ctx)
	if err != nil {
		return err
	}
	if isNull(v) {
		return nil
	}
	if sp.distinct {
		k := normDistinctValue(v)
		if st.seen == nil {
			st.seen = make(map[normValue]struct{})
		}
		if _, dup := st.seen[k]; dup {
			return nil
		}
		st.seen[k] = struct{}{}
	}
	switch sp.name {
	case "COUNT":
		st.n++
	case "SUM", "AVG":
		f, ok := v.AsNumber()
		if !ok {
			return fmt.Errorf("sqlexec: %s over non-numeric value %q: %w", sp.name, v.String(), dberr.ErrValue)
		}
		st.sum += f
		st.n++
	default: // MIN, MAX
		if !st.hasBest {
			st.best, st.hasBest = v, true
			return nil
		}
		c := v.Compare(st.best)
		if (sp.name == "MIN" && c < 0) || (sp.name == "MAX" && c > 0) {
			st.best = v
		}
	}
	return nil
}

// result finalizes the accumulator into the aggregate's value. Aggregates
// over no (non-NULL) inputs yield NULL, except COUNT which yields 0.
func (sp *aggSpec) result(st *aggState) sheet.Value {
	switch sp.name {
	case "COUNT":
		return sheet.Number(float64(st.n))
	case "SUM":
		if st.n == 0 {
			return sheet.Empty()
		}
		return sheet.Number(st.sum)
	case "AVG":
		if st.n == 0 {
			return sheet.Empty()
		}
		return sheet.Number(st.sum / float64(st.n))
	default: // MIN, MAX
		if !st.hasBest {
			return sheet.Empty()
		}
		return st.best
	}
}
