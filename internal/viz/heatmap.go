package viz

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/geo"
)

// HeatmapSVG renders an interpolated pollution surface as a coloured
// grid with the contributing sensors overlaid — the city-wide
// "emission distribution" view the paper's future work aims at (§4),
// built on the spatial interpolation in internal/analytics.
func HeatmapSVG(surf *analytics.Surface, readings []analytics.SensorReading, title string, width, height int) []byte {
	if width <= 0 {
		width = 800
	}
	if height <= 0 {
		height = 600
	}
	b := openSVG(nil, width, height)
	b = fmt.Appendf(b, `<text x="10" y="18" class="title">%s</text>`, escape(title))
	if surf == nil || surf.NX == 0 || surf.NY == 0 {
		b = append(b, `<text x="20" y="40" class="axis">no surface</text>`...)
		return closeSVG(b)
	}

	lo, hi := surf.MinMax()
	pad := 40
	cellW := float64(width-2*pad) / float64(surf.NX)
	cellH := float64(height-2*pad) / float64(surf.NY)

	for cy := 0; cy < surf.NY; cy++ {
		for cx := 0; cx < surf.NX; cx++ {
			v := surf.Values[cy*surf.NX+cx]
			// North (max cy) at the top of the image.
			x := float64(pad) + float64(cx)*cellW
			y := float64(height-pad) - float64(cy+1)*cellH
			b = append(b, `<rect`...)
			b = appendAttr(b, "x", x)
			b = appendAttr(b, "y", y)
			b = fmt.Appendf(b, ` width="%.2f" height="%.2f" fill="%s" fill-opacity="0.85"/>`,
				cellW+0.5, cellH+0.5, PollutionColor(v, lo, hi))
		}
	}

	// Overlay sensors with their measured values, projected onto the
	// same grid frame.
	enu := geo.NewENU(surf.Origin)
	for _, r := range readings {
		sx, sy := enu.Forward(r.Pos)
		px := float64(pad) + sx/surf.CellM*cellW
		py := float64(height-pad) - sy/surf.CellM*cellH
		b = append(b, `<circle`...)
		b = appendAttr(b, "cx", px)
		b = appendAttr(b, "cy", py)
		b = fmt.Appendf(b, ` r="6" fill="white" stroke="#111" stroke-width="1.5"><title>%s `, escape(r.ID))
		b = AppendTenths(b, r.Value)
		b = append(b, `</title></circle><text`...)
		b = appendAttr(b, "x", px)
		b = appendAttr(b, "y", py-10)
		b = fmt.Appendf(b, ` class="axis" text-anchor="middle">%.0f</text>`, r.Value)
	}

	// Colour legend.
	for i := 0; i <= 20; i++ {
		v := lo + float64(i)/20*(hi-lo)
		b = fmt.Appendf(b, `<rect x="%d" y="%d" width="10" height="8" fill="%s"/>`,
			width-30, height-40-i*8, PollutionColor(v, lo, hi))
	}
	b = fmt.Appendf(b, `<text x="%d" y="%d" class="axis" text-anchor="end">%.0f</text>`, width-34, height-36, lo)
	b = fmt.Appendf(b, `<text x="%d" y="%d" class="axis" text-anchor="end">%.0f</text>`, width-34, height-40-20*8+8, hi)
	return closeSVG(b)
}
