// Package viz renders the paper's visualizations: SVG line charts and
// scatter plots (the battery analysis of Fig. 4 and CO2 dynamics of
// Fig. 5), the network map of Fig. 3, dashboard panels (Fig. 6), the
// 3D city model view (Fig. 7), the combined wall display (Fig. 8),
// plus ASCII charts for terminal dashboards and GeoJSON export for
// integration into municipal GIS tools (Table 1, last row).
//
// Everything renders to bytes with no external dependencies.
package viz

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Series is one named line in a chart.
type Series struct {
	Name   string
	Color  string // CSS color; defaults assigned when empty
	Times  []time.Time
	Values []float64
}

// ScatterPoint is one point in a scatter plot with a class for
// colouring (Fig. 4 uses sunlit/dark classes).
type ScatterPoint struct {
	X, Y  float64
	Class int
}

// defaultPalette cycles for unstyled series.
var defaultPalette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// classPalette colours scatter classes (class 1 red = "sunlit" in
// Fig. 4's convention, class 0 blue).
var classPalette = []string{"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e"}

// ChartOptions configure a chart rendering.
type ChartOptions struct {
	Title         string
	Width, Height int
	XLabel        string
	YLabel        string
}

func (o *ChartOptions) defaults() {
	if o.Width <= 0 {
		o.Width = 800
	}
	if o.Height <= 0 {
		o.Height = 300
	}
}

const chartMargin = 50

// LineChartSVG renders one or more time series as an SVG line chart.
func LineChartSVG(series []Series, opt ChartOptions) []byte {
	opt.defaults()
	b := openSVG(nil, opt.Width, opt.Height)
	b = writeTitle(b, opt)

	// Bounds.
	var tMin, tMax time.Time
	vMin, vMax := math.Inf(1), math.Inf(-1)
	empty := true
	for _, s := range series {
		for i, tm := range s.Times {
			if i >= len(s.Values) || math.IsNaN(s.Values[i]) {
				continue
			}
			if empty || tm.Before(tMin) {
				tMin = tm
			}
			if empty || tm.After(tMax) {
				tMax = tm
			}
			if s.Values[i] < vMin {
				vMin = s.Values[i]
			}
			if s.Values[i] > vMax {
				vMax = s.Values[i]
			}
			empty = false
		}
	}
	if empty {
		b = append(b, `<text x="20" y="40" class="axis">no data</text>`...)
		return closeSVG(b)
	}
	if vMax == vMin {
		vMax = vMin + 1
	}
	span := tMax.Sub(tMin)
	if span <= 0 {
		span = time.Second
	}

	px := func(tm time.Time) float64 {
		return chartMargin + tm.Sub(tMin).Seconds()/span.Seconds()*float64(opt.Width-2*chartMargin)
	}
	py := func(v float64) float64 {
		return float64(opt.Height-chartMargin) - (v-vMin)/(vMax-vMin)*float64(opt.Height-2*chartMargin)
	}

	b = drawAxes(b, opt, vMin, vMax, tMin, tMax)

	for si, s := range series {
		color := s.Color
		if color == "" {
			color = defaultPalette[si%len(defaultPalette)]
		}
		// The polyline's points go straight into the document; an
		// element with no points is not drawn, so the opening tag is
		// taken back if no value follows it.
		open := len(b)
		b = fmt.Appendf(b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="`, color)
		pointsAt := len(b)
		for i, tm := range s.Times {
			if i >= len(s.Values) || math.IsNaN(s.Values[i]) {
				continue
			}
			if len(b) > pointsAt {
				b = append(b, ' ')
			}
			b = appendPoint(b, px(tm), py(s.Values[i]))
		}
		if len(b) > pointsAt {
			b = append(b, `"/>`...)
		} else {
			b = b[:open]
		}
		// Legend entry.
		ly := 16 + si*16
		b = fmt.Appendf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, opt.Width-150, ly, color)
		b = fmt.Appendf(b, `<text x="%d" y="%d" class="axis">%s</text>`, opt.Width-135, ly+9, escape(s.Name))
	}
	return closeSVG(b)
}

// ScatterSVG renders a class-coloured scatter plot (Fig. 4 right
// panel: Δbattery vs time-of-day, coloured by sunlight).
func ScatterSVG(points []ScatterPoint, classNames []string, opt ChartOptions) []byte {
	opt.defaults()
	b := openSVG(nil, opt.Width, opt.Height)
	b = writeTitle(b, opt)
	if len(points) == 0 {
		b = append(b, `<text x="20" y="40" class="axis">no data</text>`...)
		return closeSVG(b)
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		xMin = math.Min(xMin, p.X)
		xMax = math.Max(xMax, p.X)
		yMin = math.Min(yMin, p.Y)
		yMax = math.Max(yMax, p.Y)
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	px := func(x float64) float64 {
		return chartMargin + (x-xMin)/(xMax-xMin)*float64(opt.Width-2*chartMargin)
	}
	py := func(y float64) float64 {
		return float64(opt.Height-chartMargin) - (y-yMin)/(yMax-yMin)*float64(opt.Height-2*chartMargin)
	}
	b = drawAxesNumeric(b, opt, xMin, xMax, yMin, yMax)
	for _, p := range points {
		b = append(b, `<circle`...)
		b = appendAttr(b, "cx", px(p.X))
		b = appendAttr(b, "cy", py(p.Y))
		b = append(b, ` r="2.2" fill="`...)
		b = append(b, classPalette[p.Class%len(classPalette)]...)
		b = append(b, `" fill-opacity="0.7"/>`...)
	}
	for ci, name := range classNames {
		ly := 16 + ci*16
		b = fmt.Appendf(b, `<circle cx="%d" cy="%d" r="5" fill="%s"/>`, opt.Width-145, ly+5, classPalette[ci%len(classPalette)])
		b = fmt.Appendf(b, `<text x="%d" y="%d" class="axis">%s</text>`, opt.Width-135, ly+9, escape(name))
	}
	return closeSVG(b)
}

// BarChartSVG renders labeled values (used for diurnal profiles and
// the Table 1 national-statistics panel).
func BarChartSVG(labels []string, values []float64, opt ChartOptions) []byte {
	opt.defaults()
	b := openSVG(nil, opt.Width, opt.Height)
	b = writeTitle(b, opt)
	if len(values) == 0 {
		b = append(b, `<text x="20" y="40" class="axis">no data</text>`...)
		return closeSVG(b)
	}
	vMax := math.Inf(-1)
	vMin := 0.0
	for _, v := range values {
		vMax = math.Max(vMax, v)
		vMin = math.Min(vMin, v)
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}
	plotW := float64(opt.Width - 2*chartMargin)
	plotH := float64(opt.Height - 2*chartMargin)
	bw := plotW / float64(len(values))
	py := func(v float64) float64 {
		return float64(opt.Height-chartMargin) - (v-vMin)/(vMax-vMin)*plotH
	}
	zero := py(math.Max(0, vMin))
	for i, v := range values {
		x := chartMargin + float64(i)*bw
		top := py(v)
		h := zero - top
		if h < 0 {
			top, h = zero, -h
		}
		b = append(b, `<rect`...)
		b = appendAttr(b, "x", x+1)
		b = appendAttr(b, "y", top)
		b = appendAttr(b, "width", bw-2)
		b = appendAttr(b, "height", h)
		b = fmt.Appendf(b, ` fill="%s"/>`, defaultPalette[0])
		if i < len(labels) && (len(values) <= 30 || i%4 == 0) {
			b = append(b, `<text`...)
			b = appendAttr(b, "x", x+bw/2)
			b = fmt.Appendf(b, ` y="%d" class="axis" text-anchor="middle">%s</text>`,
				opt.Height-chartMargin+15, escape(labels[i]))
		}
	}
	return closeSVG(b)
}

// --- shared SVG helpers ------------------------------------------------

func openSVG(b []byte, w, h int) []byte {
	b = fmt.Appendf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b = append(b, `<style>.axis{font:10px sans-serif;fill:#444}.title{font:bold 13px sans-serif;fill:#111}</style>`...)
	return fmt.Appendf(b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
}

func closeSVG(b []byte) []byte { return append(b, `</svg>`...) }

func writeTitle(b []byte, opt ChartOptions) []byte {
	if opt.Title != "" {
		b = fmt.Appendf(b, `<text x="%d" y="18" class="title">%s</text>`, chartMargin, escape(opt.Title))
	}
	if opt.YLabel != "" {
		b = fmt.Appendf(b, `<text x="8" y="%d" class="axis" transform="rotate(-90 8 %d)">%s</text>`,
			opt.Height/2, opt.Height/2, escape(opt.YLabel))
	}
	if opt.XLabel != "" {
		b = fmt.Appendf(b, `<text x="%d" y="%d" class="axis" text-anchor="middle">%s</text>`,
			opt.Width/2, opt.Height-8, escape(opt.XLabel))
	}
	return b
}

// drawFrame draws the two axis lines and the five y ticks of a chart.
func drawFrame(b []byte, opt ChartOptions, yMin, yMax float64) []byte {
	b = fmt.Appendf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		chartMargin, opt.Height-chartMargin, opt.Width-chartMargin, opt.Height-chartMargin)
	b = fmt.Appendf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		chartMargin, chartMargin, chartMargin, opt.Height-chartMargin)
	for i := 0; i <= 4; i++ {
		v := yMin + float64(i)/4*(yMax-yMin)
		y := float64(opt.Height-chartMargin) - float64(i)/4*float64(opt.Height-2*chartMargin)
		b = fmt.Appendf(b, `<text x="%d"`, chartMargin-4)
		b = appendAttr(b, "y", y+3)
		b = fmt.Appendf(b, ` class="axis" text-anchor="end">%.4g</text>`, v)
	}
	return b
}

// appendXTick appends one x-axis label centred on x.
func appendXTick(b []byte, opt ChartOptions, x float64, label string) []byte {
	b = append(b, `<text`...)
	b = appendAttr(b, "x", x)
	return fmt.Appendf(b, ` y="%d" class="axis" text-anchor="middle">%s</text>`, opt.Height-chartMargin+15, label)
}

func drawAxes(b []byte, opt ChartOptions, vMin, vMax float64, tMin, tMax time.Time) []byte {
	b = drawFrame(b, opt, vMin, vMax)
	// X ticks: start, middle, end.
	for i := 0; i <= 2; i++ {
		tm := tMin.Add(time.Duration(float64(tMax.Sub(tMin)) * float64(i) / 2))
		x := chartMargin + float64(i)/2*float64(opt.Width-2*chartMargin)
		b = appendXTick(b, opt, x, tm.Format("01-02 15:04"))
	}
	return b
}

func drawAxesNumeric(b []byte, opt ChartOptions, xMin, xMax, yMin, yMax float64) []byte {
	b = drawFrame(b, opt, yMin, yMax)
	for i := 0; i <= 4; i++ {
		v := xMin + float64(i)/4*(xMax-xMin)
		x := chartMargin + float64(i)/4*float64(opt.Width-2*chartMargin)
		b = appendXTick(b, opt, x, strconv.FormatFloat(v, 'g', 4, 64))
	}
	return b
}

// escaper escapes the characters SVG text and attribute values cannot
// carry literally.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escape(s string) string { return escaper.Replace(s) }

// ASCIIChart renders a single series as a terminal chart of the given
// size — the quick-look view used by the CLI tools.
func ASCIIChart(values []float64, width, height int) string {
	if len(values) == 0 || width < 2 || height < 2 {
		return "(no data)\n"
	}
	vMin, vMax := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		vMin = math.Min(vMin, v)
		vMax = math.Max(vMax, v)
	}
	if math.IsInf(vMin, 1) {
		return "(no data)\n"
	}
	if vMax == vMin {
		vMax = vMin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for c := 0; c < width; c++ {
		// Sample the series at this column.
		idx := c * (len(values) - 1) / max(1, width-1)
		v := values[idx]
		if math.IsNaN(v) {
			continue
		}
		row := int((vMax - v) / (vMax - vMin) * float64(height-1))
		grid[row][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.4g ┤\n", vMax)
	for _, row := range grid {
		b.WriteString("         │")
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8.4g ┼%s\n", vMin, strings.Repeat("─", width))
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
