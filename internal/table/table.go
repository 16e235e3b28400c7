// Package table implements the tabular side of G-CORE's §5
// extensions: SELECT produces tables, FROM imports binding tables,
// and MATCH … ON can treat a table as a graph of isolated nodes.
package table

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gcore/internal/value"
)

// Table is a named relation: column names plus rows of values.
type Table struct {
	Name string
	Cols []string
	Rows [][]value.Value
}

// New creates an empty table with the given columns.
func New(name string, cols ...string) *Table {
	return &Table{Name: name, Cols: append([]string(nil), cols...)}
}

// AddRow appends one row; its arity must match the columns.
func (t *Table) AddRow(vals ...value.Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("table %s: row has %d values for %d columns", t.Name, len(vals), len(t.Cols))
	}
	t.Rows = append(t.Rows, append([]value.Value(nil), vals...))
	return nil
}

// Col returns the index of a column, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Sorted returns a copy with rows in canonical order.
func (t *Table) Sorted() *Table {
	cp := &Table{Name: t.Name, Cols: t.Cols, Rows: append([][]value.Value(nil), t.Rows...)}
	sort.SliceStable(cp.Rows, func(i, j int) bool {
		for c := range cp.Cols {
			if d := value.Compare(cp.Rows[i][c], cp.Rows[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return cp
}

// String renders the table with aligned columns, as the CLI prints it.
func (t *Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, s := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cells)-1 {
				sb.WriteString(s) // no padding on the last column
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], s)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Cols)
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	writeRow(rule)
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}

// MarshalJSON encodes the table as {"name","cols","rows"}, indented
// for reading: the indented form of AppendJSON's document.
func (t *Table) MarshalJSON() ([]byte, error) {
	data, err := t.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(data))
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AppendJSON appends the table's {"name","cols","rows"} document to
// dst in one compact pass, byte-identical to json.Compact of
// MarshalJSON (a nil column list, row list or row is null). It fails
// only on a value JSON cannot hold (a NaN or infinite float).
func (t *Table) AppendJSON(dst []byte) ([]byte, error) {
	dst = value.AppendJSONString(append(dst, `{"name":`...), t.Name)
	dst = append(dst, `,"cols":`...)
	if t.Cols == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range t.Cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = value.AppendJSONString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	if t.Rows == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, row := range t.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = v.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...), nil
}

// UnmarshalJSON decodes the JSON form.
func (t *Table) UnmarshalJSON(data []byte) error {
	var doc struct {
		Name string          `json:"name"`
		Cols []string        `json:"cols"`
		Rows [][]value.Value `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	for i, r := range doc.Rows {
		if len(r) != len(doc.Cols) {
			return fmt.Errorf("table %s: row %d has %d values for %d columns", doc.Name, i, len(r), len(doc.Cols))
		}
	}
	t.Name, t.Cols, t.Rows = doc.Name, doc.Cols, doc.Rows
	return nil
}

// ReadCSV loads a table from CSV with a header row. Cells are typed
// by trial: integer, then float, then the raw string.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table %s: reading CSV header: %w", name, err)
	}
	t := New(name, header...)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("table %s: reading CSV: %w", name, err)
		}
		row := make([]value.Value, len(rec))
		for i, cell := range rec {
			row[i] = typeCell(cell)
		}
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
}

func typeCell(cell string) value.Value {
	if cell == "" {
		return value.Null
	}
	if i, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return value.Int(i)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return value.Float(f)
	}
	switch strings.ToLower(cell) {
	case "true":
		return value.True
	case "false":
		return value.False
	}
	return value.Str(cell)
}

// WriteCSV emits the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Cols); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			if s, ok := v.AsString(); ok {
				rec[i] = s
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
