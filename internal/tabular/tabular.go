// Package tabular is a minimal fixed-width table writer used by the
// benchmark harness and command-line tools to print paper-style
// tables.
package tabular

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// New creates a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
