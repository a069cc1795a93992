package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/dataspread/dataspread/internal/dberr"
	"github.com/dataspread/dataspread/internal/sheet"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	// params counts the '?' placeholders of the statement being parsed;
	// each placeholder takes the next 0-based index in lexical order.
	// ParseMulti resets it per top-level statement.
	params int
	// named maps the statement's ':name' parameters (case-folded) to their
	// slot index; repeated names share one slot. A statement may use '?' or
	// ':name' but not both.
	named map[string]int
}

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokPunct, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseMulti parses a semicolon-separated script into statements and the
// source text of each: the input from its first token up to its ';' (or the
// end), cut at the lexer's token positions, so a ';' inside a string literal
// or a comment does not split it. Parsing a text alone yields its statement.
func ParseMulti(input string) (stmts []Statement, texts []string, err error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, nil, err
	}
	p := &Parser{toks: toks}
	for !p.atEOF() {
		if p.accept(TokPunct, ";") {
			continue
		}
		p.params = 0
		p.named = nil
		start := p.peek().Pos
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, nil, err
		}
		end := p.peek().Pos // of the ';', or the end of the input
		if !p.atEOF() && !p.accept(TokPunct, ";") {
			return nil, nil, p.errorf("expected ';' between statements, got %q", p.peek().Text)
		}
		stmts = append(stmts, stmt)
		texts = append(texts, strings.TrimSpace(input[start:end]))
	}
	return stmts, texts, nil
}

// ParseExpr parses a standalone expression (used by tests and the formula
// engine when embedding SQL expressions).
func ParseExpr(input string) (Expr, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after expression: %q", p.peek().Text)
	}
	return e, nil
}

// --- token helpers ---

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

// accept consumes the next token if it matches kind and (case-insensitive)
// text; empty text matches any token of the kind.
func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind != kind {
		return false
	}
	if text != "" && !strings.EqualFold(t.Text, text) {
		return false
	}
	p.next()
	return true
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

// peekKeyword reports whether the next token is the given keyword.
func (p *Parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

// peekAheadKeyword reports whether the token n positions ahead is the given
// keyword (n = 0 is the next token).
func (p *Parser) peekAheadKeyword(n int, kw string) bool {
	if p.pos+n >= len(p.toks) {
		return false
	}
	t := p.toks[p.pos+n]
	return t.Kind == TokKeyword && t.Text == kw
}

// expect consumes a token of the given kind/text or fails.
func (p *Parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.peek()
	if t.Kind != kind || (text != "" && !strings.EqualFold(t.Text, text)) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", kind)
		}
		return t, p.errorf("expected %s, got %q", want, tokenDesc(t))
	}
	return p.next(), nil
}

func (p *Parser) expectKeyword(kw string) error {
	_, err := p.expect(TokKeyword, kw)
	return err
}

// expectIdent consumes an identifier (or a non-reserved keyword used as a
// name) and returns its text.
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.next()
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, got %q", tokenDesc(t))
}

func tokenDesc(t Token) string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return t.Text
}

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// --- statements ---

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected a statement, got %q", tokenDesc(t))
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		if p.peekAheadKeyword(1, "INDEX") || p.peekAheadKeyword(1, "UNIQUE") {
			return p.parseCreateIndex()
		}
		return p.parseCreateTable()
	case "ALTER":
		return p.parseAlterTable()
	case "DROP":
		if p.peekAheadKeyword(1, "INDEX") {
			return p.parseDropIndex()
		}
		return p.parseDropTable()
	case "EXPLAIN":
		p.next()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf("unsupported statement %q", t.Text)
	}
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	// The paper's demo queries write "SELECT FROM ACTORS ..."; treat an
	// immediately following FROM as an implicit "*" projection.
	if p.peekKeyword("FROM") {
		stmt.Columns = []SelectItem{{Star: true}}
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, item)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = from
		for {
			join, ok, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			stmt.Joins = append(stmt.Joins, join)
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Limit = &n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Offset = &n
	}
	return stmt, nil
}

// parseIntLiteral parses the row count of LIMIT / OFFSET: a non-negative
// integral literal that fits an int. Anything else (2.7, 1e30, 2^63) is
// rejected here — int(f) on it would truncate silently or wrap negative, and
// the executor slices and sizes heaps with the result.
func (p *Parser) parseIntLiteral() (int, error) {
	t, err := p.expect(TokNumber, "")
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(t.Text, 64)
	if err != nil || f < 0 || f != math.Trunc(f) || f >= math.MaxInt {
		return 0, fmt.Errorf("sql: row count %q is not an integer in range (at offset %d): %w", t.Text, t.Pos, dberr.ErrSyntax)
	}
	return int(f), nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.peek().Kind == TokOperator && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if p.peek().Kind == TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOperator && p.toks[p.pos+2].Text == "*" {
		table := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, TableStar: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	if p.peekKeyword("RANGETABLE") {
		return p.parseRangeTable()
	}
	if p.accept(TokPunct, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		sub := &SubSelect{Select: sel}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			sub.Alias = alias
		} else if p.peek().Kind == TokIdent {
			sub.Alias = p.next().Text
		}
		return sub, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableName{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// parseRangeTable parses RANGETABLE(<range>[, TRUE|FALSE]) [alias].
func (p *Parser) parseRangeTable() (TableRef, error) {
	if err := p.expectKeyword("RANGETABLE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	refText, err := p.parsePositionalRef()
	if err != nil {
		return nil, err
	}
	rt := &RangeTableRef{Ref: refText, HeaderRow: true}
	if p.accept(TokPunct, ",") {
		switch {
		case p.acceptKeyword("TRUE"):
			rt.HeaderRow = true
		case p.acceptKeyword("FALSE"):
			rt.HeaderRow = false
		default:
			return nil, p.errorf("expected TRUE or FALSE after ',' in RANGETABLE")
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		rt.Alias = alias
	} else if p.peek().Kind == TokIdent {
		rt.Alias = p.next().Text
	}
	return rt, nil
}

// parsePositionalRef reconstructs the textual cell or range reference inside
// RANGEVALUE(...)/RANGETABLE(...): a sequence of identifiers, numbers and the
// punctuation characters $ : ! . until a ',' or ')'.
func (p *Parser) parsePositionalRef() (string, error) {
	var sb strings.Builder
	for {
		t := p.peek()
		switch {
		case t.Kind == TokIdent || t.Kind == TokNumber || t.Kind == TokKeyword:
			sb.WriteString(t.Text)
			p.next()
		case t.Kind == TokPunct && (t.Text == "$" || t.Text == ":" || t.Text == "!" || t.Text == "."):
			sb.WriteString(t.Text)
			p.next()
		case t.Kind == TokString:
			sb.WriteString(t.Text)
			p.next()
		default:
			if sb.Len() == 0 {
				return "", p.errorf("expected a cell or range reference, got %q", tokenDesc(t))
			}
			return sb.String(), nil
		}
	}
}

func (p *Parser) parseJoin() (Join, bool, error) {
	var j Join
	natural := false
	if p.peekKeyword("NATURAL") {
		natural = true
		p.next()
	}
	switch {
	case p.acceptKeyword("JOIN"):
		j.Type = JoinInner
	case p.peekKeyword("INNER"):
		p.next()
		if err := p.expectKeyword("JOIN"); err != nil {
			return j, false, err
		}
		j.Type = JoinInner
	case p.peekKeyword("LEFT"):
		p.next()
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return j, false, err
		}
		j.Type = JoinLeft
	case p.peekKeyword("CROSS"):
		p.next()
		if err := p.expectKeyword("JOIN"); err != nil {
			return j, false, err
		}
		j.Type = JoinCross
	case p.accept(TokPunct, ","):
		j.Type = JoinCross
	default:
		if natural {
			return j, false, p.errorf("expected JOIN after NATURAL")
		}
		return j, false, nil
	}
	j.Natural = natural
	table, err := p.parseTableRef()
	if err != nil {
		return j, false, err
	}
	j.Table = table
	if p.acceptKeyword("ON") {
		e, err := p.parseExpr()
		if err != nil {
			return j, false, err
		}
		j.On = e
	} else if p.acceptKeyword("USING") {
		if _, err := p.expect(TokPunct, "("); err != nil {
			return j, false, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return j, false, err
			}
			j.Using = append(j.Using, col)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return j, false, err
		}
	}
	return j, true, nil
}

func (p *Parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	if p.accept(TokPunct, "(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
	}
	if p.peekKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel
		return stmt, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	return stmt, nil
}

func (p *Parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOperator, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Value: e})
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *Parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *Parser) parseCreateTable() (*CreateTableStmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.AsSelect = sel
		return stmt, nil
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return def, err
	}
	def.Name = name
	// Type is optional (DataSpread columns may be dynamically typed).
	if p.peek().Kind == TokIdent {
		def.Type = p.next().Text
		// Allow parenthesised type parameters, e.g. VARCHAR(255).
		if p.accept(TokPunct, "(") {
			for !p.accept(TokPunct, ")") {
				if p.atEOF() {
					return def, p.errorf("unterminated type parameters")
				}
				p.next()
			}
		}
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return def, err
			}
			def.NotNull = true
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return def, err
			}
			def.Default = e
		default:
			return def, nil
		}
	}
}

func (p *Parser) parseAlterTable() (*AlterTableStmt, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &AlterTableStmt{Table: name}
	switch {
	case p.acceptKeyword("ADD"):
		p.acceptKeyword("COLUMN")
		def, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.AddColumn = &def
	case p.acceptKeyword("DROP"):
		p.acceptKeyword("COLUMN")
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.DropColumn = col
	case p.acceptKeyword("RENAME"):
		p.acceptKeyword("COLUMN")
		oldName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TO"); err != nil {
			return nil, err
		}
		newName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.RenameColumn = &[2]string{oldName, newName}
	default:
		return nil, p.errorf("expected ADD, DROP or RENAME in ALTER TABLE")
	}
	return stmt, nil
}

func (p *Parser) parseDropTable() (*DropTableStmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

// parseCreateIndex parses CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON
// table (col, ...).
func (p *Parser) parseCreateIndex() (*CreateIndexStmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	stmt := &CreateIndexStmt{}
	if p.acceptKeyword("UNIQUE") {
		stmt.Unique = true
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = table
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseDropIndex parses DROP INDEX [IF EXISTS] name.
func (p *Parser) parseDropIndex() (*DropIndexStmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	stmt := &DropIndexStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

// --- expressions ---

// parseExpr parses an expression with OR at the lowest precedence.
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates: IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE.
	for {
		if p.acceptKeyword("IS") {
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{X: left, Not: not}
			continue
		}
		notBefore := false
		if p.peekKeyword("NOT") && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].Kind == TokKeyword &&
			(p.toks[p.pos+1].Text == "IN" || p.toks[p.pos+1].Text == "BETWEEN" || p.toks[p.pos+1].Text == "LIKE") {
			p.next()
			notBefore = true
		}
		switch {
		case p.acceptKeyword("IN"):
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
			in := &InExpr{X: left, Not: notBefore}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			left = in
			continue
		case p.acceptKeyword("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: notBefore}
			continue
		case p.acceptKeyword("LIKE"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			left = &LikeExpr{X: left, Pattern: pat, Not: notBefore}
			continue
		}
		if notBefore {
			return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
		}
		t := p.peek()
		if t.Kind == TokOperator {
			switch t.Text {
			case "=", "<>", "!=", "<", "<=", ">", ">=":
				p.next()
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				op := t.Text
				if op == "!=" {
					op = "<>"
				}
				left = &BinaryExpr{Op: op, Left: left, Right: right}
				continue
			}
		}
		return left, nil
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOperator && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOperator && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokOperator && (t.Text == "-" || t.Text == "+") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return x, nil
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q", t.Text)
		}
		return &Literal{Value: sheet.Number(f)}, nil
	case TokString:
		p.next()
		return &Literal{Value: sheet.String_(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &NullLiteral{}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: sheet.Bool_(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: sheet.Bool_(false)}, nil
		case "RANGEVALUE":
			p.next()
			if _, err := p.expect(TokPunct, "("); err != nil {
				return nil, err
			}
			ref, err := p.parsePositionalRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return &RangeValueExpr{Ref: ref}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.next()
			if len(p.named) > 0 {
				return nil, p.errorf("cannot mix '?' and ':name' parameters in one statement")
			}
			ph := &Placeholder{Index: p.params}
			p.params++
			return ph, nil
		}
		if t.Text == ":" {
			// A named parameter is ':' immediately followed (no whitespace)
			// by an identifier: ":id". The colon elsewhere (A1:B10 ranges)
			// is consumed by the positional-reference parser, never here.
			nameTok := p.toks[p.pos+1]
			if (nameTok.Kind == TokIdent || nameTok.Kind == TokKeyword) && nameTok.Pos == t.Pos+1 {
				if p.params > len(p.named) {
					return nil, p.errorf("cannot mix '?' and ':name' parameters in one statement")
				}
				p.next()
				p.next()
				name := strings.ToLower(nameTok.Text)
				if p.named == nil {
					p.named = make(map[string]int)
				}
				idx, ok := p.named[name]
				if !ok {
					idx = p.params
					p.named[name] = idx
					p.params++
				}
				return &Placeholder{Index: idx, Name: name}, nil
			}
		}
		return nil, p.errorf("unexpected %q in expression", t.Text)
	case TokIdent:
		name := p.next().Text
		// Function call.
		if p.accept(TokPunct, "(") {
			fc := &FuncCall{Name: strings.ToUpper(name)}
			if p.peek().Kind == TokOperator && p.peek().Text == "*" {
				p.next()
				fc.Star = true
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.acceptKeyword("DISTINCT") {
				fc.Distinct = true
			}
			if !p.accept(TokPunct, ")") {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, e)
					if !p.accept(TokPunct, ",") {
						break
					}
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column reference.
		if p.accept(TokPunct, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, p.errorf("unexpected %q in expression", tokenDesc(t))
	}
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
