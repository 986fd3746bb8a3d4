// Package plot renders small ASCII charts so the experiment harness can
// show the shape of the paper's figures directly in a terminal: the
// isoefficiency curves of Figures 4 and 7 (W against P log P per
// efficiency level) and the active-processor traces of Figure 8.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Config describes the canvas.
type Config struct {
	Width  int // plot area columns; 0 means 60
	Height int // plot area rows; 0 means 16
	XLabel string
	YLabel string
	LogY   bool // plot log10(Y) instead of Y
	Title  string
}

// markers are assigned to series in order.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Render draws the series onto one shared canvas and returns it as a
// string (trailing newline included).  Series with fewer than one point
// are skipped; non-finite and (under LogY) non-positive values are
// dropped.
func Render(cfg Config, series ...Series) string {
	width, height := cfg.Width, cfg.Height
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 16
	}

	type pt struct {
		x, y float64
		mark byte
	}
	var pts []pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			x, y := s.X[i], s.Y[i]
			if cfg.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			pts = append(pts, pt{x, y, mark})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if len(pts) == 0 {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		c := int(math.Round((p.x - minX) / (maxX - minX) * float64(width-1)))
		r := int(math.Round((p.y - minY) / (maxY - minY) * float64(height-1)))
		row := height - 1 - r // y grows upward
		grid[row][c] = p.mark
	}

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	yHi, yLo := maxY, minY
	suffix := ""
	if cfg.LogY {
		suffix = " (log10)"
	}
	fmt.Fprintf(&b, "%11.4g +%s\n", yHi, suffix)
	for r, row := range grid {
		label := strings.Repeat(" ", 11)
		if r == height-1 {
			label = fmt.Sprintf("%11.4g", yLo)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 11), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-10.4g%*s%10.4g\n", strings.Repeat(" ", 11), minX, width-20, "", maxX)
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s%s\n", strings.Repeat(" ", 11), cfg.XLabel, cfg.YLabel, suffix)
	}
	var legend []string
	for si, s := range series {
		if len(s.X) > 0 {
			legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
		}
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", 11), strings.Join(legend, "   "))
	}
	return b.String()
}

// Line renders a single unnamed series, a convenience for traces.
func Line(cfg Config, ys []float64) string {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	return Render(cfg, Series{Name: "series", X: xs, Y: ys})
}
