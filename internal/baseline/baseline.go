// Package baseline implements a deliberately conventional spreadsheet engine
// used as the comparison point for DataSpread's interface-aware design: no
// database backing, no positional index, no window awareness, and full
// recomputation of every formula after any change. It reproduces the
// behaviour the paper's introduction attributes to stock spreadsheet software
// ("beyond a few 100s of thousands of rows, the software is no longer
// responsive") so the experiments can compare interaction latency shapes.
package baseline

import (
	"strings"

	"github.com/dataspread/dataspread/internal/formula"
	"github.com/dataspread/dataspread/internal/sheet"
)

// Spreadsheet is the naive engine: one sheet, a flat cell map, value-at-a-time
// formulas recomputed in full on every edit.
type Spreadsheet struct {
	cells    map[sheet.Address]sheet.Cell
	formulas map[sheet.Address]formula.Expr
	// RecalcOnEdit controls whether every edit triggers a full
	// recalculation (the default, mirroring an auto-calculate spreadsheet).
	RecalcOnEdit bool
	evaluations  uint64
}

// New creates an empty naive spreadsheet.
func New() *Spreadsheet {
	return &Spreadsheet{
		cells:        make(map[sheet.Address]sheet.Cell),
		formulas:     make(map[sheet.Address]formula.Expr),
		RecalcOnEdit: true,
	}
}

// CellCount returns the number of non-empty cells.
func (s *Spreadsheet) CellCount() int { return len(s.cells) }

// Evaluations returns the number of formula evaluations performed.
func (s *Spreadsheet) Evaluations() uint64 { return s.evaluations }

// Set enters user input into a cell: formulas start with "=", everything
// else is a literal. With RecalcOnEdit set, every formula on the sheet is
// re-evaluated afterwards.
func (s *Spreadsheet) Set(a sheet.Address, input string) error {
	trimmed := strings.TrimSpace(input)
	if trimmed == "" {
		delete(s.cells, a)
		delete(s.formulas, a)
	} else if strings.HasPrefix(trimmed, "=") {
		expr, err := formula.Parse(trimmed)
		if err != nil {
			return err
		}
		s.formulas[a] = expr
		s.cells[a] = sheet.Cell{Formula: strings.TrimPrefix(trimmed, "=")}
	} else {
		delete(s.formulas, a)
		s.cells[a] = sheet.Cell{Value: sheet.ParseLiteral(input)}
	}
	if s.RecalcOnEdit {
		s.RecalcAll()
	}
	return nil
}

// SetValue stores a literal value without parsing text input.
func (s *Spreadsheet) SetValue(a sheet.Address, v sheet.Value) {
	delete(s.formulas, a)
	s.cells[a] = sheet.Cell{Value: v}
	if s.RecalcOnEdit {
		s.RecalcAll()
	}
}

// Get returns the current value of a cell.
func (s *Spreadsheet) Get(a sheet.Address) sheet.Value { return s.cells[a].Value }

// dataSource adapts the naive sheet to the formula evaluator.
type dataSource struct{ s *Spreadsheet }

func (d dataSource) CellValue(_ string, a sheet.Address) sheet.Value { return d.s.cells[a].Value }

func (d dataSource) RangeValues(_ string, r sheet.Range) [][]sheet.Value {
	out := make([][]sheet.Value, r.Rows())
	for i := range out {
		out[i] = make([]sheet.Value, r.Cols())
		for j := range out[i] {
			out[i][j] = d.s.cells[sheet.Addr(r.Start.Row+i, r.Start.Col+j)].Value
		}
	}
	return out
}

// RecalcAll evaluates every formula on the sheet. Formulas are evaluated a
// fixed number of passes (two) to let simple chains settle; the naive engine
// makes no attempt at dependency ordering, which is part of what the
// DataSpread compute engine improves on.
func (s *Spreadsheet) RecalcAll() {
	src := dataSource{s: s}
	for pass := 0; pass < 2; pass++ {
		for a, expr := range s.formulas {
			v := formula.Eval(expr, &formula.Env{At: a, Data: src})
			c := s.cells[a]
			c.Value = v
			s.cells[a] = c
			s.evaluations++
		}
	}
}

// Window returns the dense values of a rectangular region. The naive engine
// has no index: it probes every address in the region against the flat map
// (or scans the whole map when the region is larger), which is the cost the
// positional index avoids for a bound table.
func (s *Spreadsheet) Window(r sheet.Range) [][]sheet.Value {
	out := make([][]sheet.Value, r.Rows())
	for i := range out {
		out[i] = make([]sheet.Value, r.Cols())
	}
	if r.Size() <= len(s.cells) {
		for i := 0; i < r.Rows(); i++ {
			for j := 0; j < r.Cols(); j++ {
				out[i][j] = s.cells[sheet.Addr(r.Start.Row+i, r.Start.Col+j)].Value
			}
		}
		return out
	}
	for a, c := range s.cells {
		if r.Contains(a) {
			out[a.Row-r.Start.Row][a.Col-r.Start.Col] = c.Value
		}
	}
	return out
}

// FilterRows returns the row indexes (0-based, within [0,rows)) whose cell in
// any of the given columns satisfies pred — the "manually identify the rows"
// operation from the paper's first motivating example, done by scanning the
// grid cell by cell.
func (s *Spreadsheet) FilterRows(rows int, cols []int, pred func(sheet.Value) bool) []int {
	var out []int
	for r := 0; r < rows; r++ {
		for _, c := range cols {
			if pred(s.cells[sheet.Addr(r, c)].Value) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// GroupAverage computes the average of valueCol grouped by the key found by
// looking up keyCol in a second region (VLOOKUP-per-row style), mirroring how
// a user joins two sheets without a database: one lookup formula per row.
func (s *Spreadsheet) GroupAverage(rows int, keyCol, valueCol int, lookup map[string]string) map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]float64{}
	for r := 0; r < rows; r++ {
		key := s.cells[sheet.Addr(r, keyCol)].Value.AsString()
		grp, ok := lookup[key]
		if !ok {
			continue
		}
		if f, ok := s.cells[sheet.Addr(r, valueCol)].Value.AsNumber(); ok {
			sums[grp] += f
			counts[grp]++
		}
	}
	out := map[string]float64{}
	for g, sum := range sums {
		out[g] = sum / counts[g]
	}
	return out
}
