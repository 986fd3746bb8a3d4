package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"simdtree/internal/report"
)

// Table is one experiment's results, as every writer takes them: the
// aligned text table, the CSV file and the Markdown report table.
type Table struct {
	Name    string   // CSV file stem; "" writes no CSV
	Title   string   // comment lines printed verbatim above the text table
	Columns []Column // one per cell of every row
	Rows    [][]any
	Plot    string // preformatted figure printed after the text and Markdown tables
}

// Column is one column of a Table.  A column without a CSV name is left
// out of the CSV; one without a heading, out of the text and Markdown
// tables.
type Column struct {
	CSV  string
	Head string
	Verb string // text format verb; "" prints the value as fmt.Sprint does
}

// text formats v for the text and Markdown tables.  A string is printed as
// is under any verb, so a row can carry a marker such as a fit line.
func (c Column) text(v any) string {
	if _, ok := v.(string); ok || c.Verb == "" {
		return fmt.Sprint(v)
	}
	return fmt.Sprintf(c.Verb, v)
}

// csvCell formats v for the CSV file: floats with four decimals, anything
// else as fmt.Sprint does.
func csvCell(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'f', 4, 64)
	}
	return fmt.Sprint(v)
}

// cells returns the headings and the formatted rows of the columns keep
// selects.
func (t Table) cells(keep func(Column) (string, bool), format func(Column, any) string) (heads []string, rows [][]string) {
	var idx []int
	for i, c := range t.Columns {
		if h, ok := keep(c); ok {
			idx = append(idx, i)
			heads = append(heads, h)
		}
	}
	for _, r := range t.Rows {
		row := make([]string, len(idx))
		for j, i := range idx {
			row[j] = format(t.Columns[i], r[i])
		}
		rows = append(rows, row)
	}
	return heads, rows
}

func (t Table) textCells() ([]string, [][]string) {
	return t.cells(func(c Column) (string, bool) { return c.Head, c.Head != "" }, Column.text)
}

// WriteText writes t's title, its text columns aligned and its plot.
func WriteText(w io.Writer, t Table) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if t.Title != "" {
		fmt.Fprintln(tw, t.Title)
	}
	if heads, rows := t.textCells(); len(heads) > 0 {
		fmt.Fprintln(tw, strings.Join(heads, "\t"))
		for _, r := range rows {
			fmt.Fprintln(tw, strings.Join(r, "\t"))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := io.WriteString(w, t.Plot)
	return err
}

// WriteCSV writes t's CSV columns, a header record first.
func WriteCSV(w io.Writer, t Table) error {
	heads, rows := t.cells(func(c Column) (string, bool) { return c.CSV, c.CSV != "" },
		func(_ Column, v any) string { return csvCell(v) })
	cw := csv.NewWriter(w)
	if err := cw.Write(heads); err != nil {
		return err
	}
	return cw.WriteAll(rows)
}

// WriteMarkdown appends t to doc: its title lines as paragraphs, its text
// columns as a table and its plot as a code block.
func WriteMarkdown(doc *report.Doc, t Table) {
	for _, line := range strings.Split(t.Title, "\n") {
		if line = strings.TrimLeft(line, "# "); line != "" {
			doc.Para("%s", line)
		}
	}
	if heads, rows := t.textCells(); len(heads) > 0 {
		doc.Table(heads, rows)
	}
	if t.Plot != "" {
		doc.Code(t.Plot)
	}
}

// Value returns row i's value in the column whose CSV name is col, which
// must exist and hold a T.
func Value[T any](t Table, i int, col string) T {
	for j, c := range t.Columns {
		if c.CSV == col {
			return t.Rows[i][j].(T)
		}
	}
	panic("experiments: table " + t.Name + " has no column " + col)
}
