// Package report renders experiment results for the terminal and for files:
// aligned ASCII tables, simple ASCII line charts (so the figure shapes can
// be eyeballed without a plotting stack), and CSV export for external
// plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"siot/internal/stats"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the table as CSV (comma-separated, quotes where needed).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRec := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRec(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRec(row); err != nil {
			return err
		}
	}
	return nil
}

// Chart renders one or more series as an ASCII line chart. Each series gets
// a distinct marker; overlapping points show the later series' marker.
type Chart struct {
	Title  string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 18)
	YLabel string
	XLabel string
	Series []stats.Series
}

// markers cycles across series.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 18
	}
	if len(c.Series) == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return err
	}
	// Bounds.
	xlo, xhi := math.Inf(1), math.Inf(-1)
	ylo, yhi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			if s.X[i] < xlo {
				xlo = s.X[i]
			}
			if s.X[i] > xhi {
				xhi = s.X[i]
			}
			if s.Y[i] < ylo {
				ylo = s.Y[i]
			}
			if s.Y[i] > yhi {
				yhi = s.Y[i]
			}
		}
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, m byte) {
		col := int((x - xlo) / (xhi - xlo) * float64(width-1))
		row := height - 1 - int((y-ylo)/(yhi-ylo)*float64(height-1))
		if col >= 0 && col < width && row >= 0 && row < height {
			grid[row][col] = m
		}
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			plot(s.X[i], s.Y[i], m)
		}
	}
	if c.Title != "" {
		if _, err := fmt.Fprintln(w, c.Title); err != nil {
			return err
		}
	}
	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", yhi)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ylo)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-10.4g%s%10.4g\n", strings.Repeat(" ", 8), xlo,
		strings.Repeat(" ", max(1, width-20)), xhi); err != nil {
		return err
	}
	// Legend.
	for si, s := range c.Series {
		if _, err := fmt.Fprintf(w, "          %c %s\n", markers[si%len(markers)], s.Name); err != nil {
			return err
		}
	}
	if c.XLabel != "" || c.YLabel != "" {
		if _, err := fmt.Fprintf(w, "          x: %s   y: %s\n", c.XLabel, c.YLabel); err != nil {
			return err
		}
	}
	return nil
}

// SeriesCSV writes one or more series as long-format CSV
// (series,x,y per row).
func SeriesCSV(w io.Writer, series ...stats.Series) error {
	if _, err := io.WriteString(w, "series,x,y\n"); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
