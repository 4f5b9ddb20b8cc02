package viz

import (
	"encoding/json"
	"fmt"

	"repro/internal/citygml"
	"repro/internal/dataport"
	"repro/internal/geo"
)

// Network map — the paper's Fig. 3: "a visualization of the network
// itself ... of the structure of digital twins for sensors and
// gateways, their location, the connections and live data transmission
// between sensors and gateways."

// statusColor maps twin status to display colour.
func statusColor(status string) string {
	switch status {
	case "ok":
		return "#2ca02c"
	case "silent", "down":
		return "#d62728"
	case "battery-low":
		return "#ff7f0e"
	default: // pending
		return "#7f7f7f"
	}
}

// NetworkMapSVG renders a dataport snapshot as the Fig. 3 map.
func NetworkMapSVG(snap dataport.NetworkSnapshot, width, height int) []byte {
	if width <= 0 {
		width = 800
	}
	if height <= 0 {
		height = 600
	}
	b := openSVG(nil, width, height)
	b = fmt.Appendf(b, `<text x="10" y="18" class="title">CTT network — %s</text>`,
		snap.Time.Format("2006-01-02 15:04"))

	// Projection over all device positions.
	var pts []geo.LatLon
	for _, s := range snap.Sensors {
		pts = append(pts, s.Pos)
	}
	for _, g := range snap.Gateways {
		pts = append(pts, g.Pos)
	}
	if len(pts) == 0 {
		b = append(b, `<text x="20" y="40" class="axis">no devices</text>`...)
		return closeSVG(b)
	}
	project := newProjector(pts, width, height, 40)

	// Links first (under the nodes).
	sensorPos := map[string]geo.LatLon{}
	for _, s := range snap.Sensors {
		sensorPos[s.ID] = s.Pos
	}
	gwPos := map[string]geo.LatLon{}
	for _, g := range snap.Gateways {
		gwPos[g.ID] = g.Pos
	}
	for _, l := range snap.Links {
		sp, ok1 := sensorPos[l.SensorID]
		gp, ok2 := gwPos[l.GatewayID]
		if !ok1 || !ok2 {
			continue
		}
		x1, y1 := project(sp)
		x2, y2 := project(gp)
		stroke, dash := "#bbbbbb", ""
		if l.Live {
			stroke, dash = "#1f77b4", ` stroke-dasharray="5,3"`
		}
		b = append(b, `<line`...)
		b = appendAttr(b, "x1", x1)
		b = appendAttr(b, "y1", y1)
		b = appendAttr(b, "x2", x2)
		b = appendAttr(b, "y2", y2)
		b = fmt.Appendf(b, ` stroke="%s" stroke-width="1.2"%s/>`, stroke, dash)
	}

	// Gateways as squares, sensors as circles.
	for _, g := range snap.Gateways {
		x, y := project(g.Pos)
		b = append(b, `<rect`...)
		b = appendAttr(b, "x", x-7)
		b = appendAttr(b, "y", y-7)
		b = fmt.Appendf(b, ` width="14" height="14" fill="%s" stroke="#333"><title>%s (%s)</title></rect>`,
			statusColor(g.Status), escape(g.ID), g.Status)
		b = append(b, `<text`...)
		b = appendAttr(b, "x", x)
		b = appendAttr(b, "y", y-10)
		b = fmt.Appendf(b, ` class="axis" text-anchor="middle">%s</text>`, escape(g.ID))
	}
	for _, s := range snap.Sensors {
		x, y := project(s.Pos)
		b = append(b, `<circle`...)
		b = appendAttr(b, "cx", x)
		b = appendAttr(b, "cy", y)
		b = fmt.Appendf(b, ` r="6" fill="%s" stroke="#333"><title>%s (%s) batt %.0f%%</title></circle>`,
			statusColor(s.Status), escape(s.ID), s.Status, s.BatteryPct)
	}
	return closeSVG(b)
}

// newProjector maps geographic coordinates into the SVG viewport with
// padding, preserving aspect ratio.
func newProjector(pts []geo.LatLon, width, height, pad int) func(geo.LatLon) (float64, float64) {
	box := geo.NewBBox(pts...)
	enu := geo.NewENU(box.Center())
	minX, minY := 1e18, 1e18
	maxX, maxY := -1e18, -1e18
	for _, p := range pts {
		x, y := enu.Forward(p)
		minX, maxX = minF(minX, x), maxF(maxX, x)
		minY, maxY = minF(minY, y), maxF(maxY, y)
	}
	spanX := maxX - minX
	spanY := maxY - minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	scale := minF(float64(width-2*pad)/spanX, float64(height-2*pad)/spanY)
	return func(p geo.LatLon) (float64, float64) {
		x, y := enu.Forward(p)
		sx := float64(pad) + (x-minX)*scale
		sy := float64(height-pad) - (y-minY)*scale // north up
		return sx, sy
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// --- Fig. 7: city model rendering --------------------------------------

// PollutionColor maps a CO2-like value onto a green→red ramp between
// lo and hi.
func PollutionColor(v, lo, hi float64) string {
	if hi <= lo {
		return "#888888"
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	r := int(60 + f*(220-60))
	g := int(180 - f*140)
	return fmt.Sprintf("#%02x%02x40", r, g)
}

// CityModelSVG renders a 2.5D oblique view of the city model with
// sensor measuring points coloured by their value (Fig. 7). Buildings
// are drawn back-to-front with height-shaded roofs.
func CityModelSVG(m *citygml.Model, loVal, hiVal float64, width, height int) []byte {
	if width <= 0 {
		width = 900
	}
	if height <= 0 {
		height = 650
	}
	b := openSVG(nil, width, height)
	b = fmt.Appendf(b, `<text x="10" y="18" class="title">%s — 3D city model with sensor data</text>`, escape(m.Name))

	var pts []geo.LatLon
	for i := range m.Buildings {
		pts = append(pts, m.Buildings[i].Centroid())
	}
	for _, s := range m.Sensors {
		pts = append(pts, s.Pos)
	}
	if len(pts) == 0 {
		b = append(b, `<text x="20" y="40" class="axis">empty model</text>`...)
		return closeSVG(b)
	}
	project := newProjector(pts, width, height, 50)

	// Draw north-most buildings first so southern ones overlap them
	// (simple painter's algorithm for the oblique view).
	order := make([]int, len(m.Buildings))
	for i := range order {
		order[i] = i
	}
	sortByLatDesc(order, m)

	const hScale = 0.6 // vertical meters → pixels for the extrusion
	for _, bi := range order {
		bld := &m.Buildings[bi]
		if len(bld.Footprint) < 3 {
			continue
		}
		// Footprint polygon, then the roof: the base shifted up by
		// height.
		shade := 200 - int(minF(bld.HeightM, 40)*2.5)
		b = appendPolygon(b, bld.Footprint, project, 0)
		b = fmt.Appendf(b, `" fill="#%02x%02x%02x" stroke="#666" stroke-width="0.4"/>`, shade, shade, shade)
		b = appendPolygon(b, bld.Footprint, project, bld.HeightM*hScale)
		b = fmt.Appendf(b, `" fill="#%02x%02x%02x" stroke="#444" stroke-width="0.5"><title>%s %s %.0fm</title></polygon>`,
			shade+25, shade+25, shade+30, escape(bld.ID), bld.Function, bld.HeightM)
	}

	// Sensor measuring points: masts with value-coloured heads.
	for _, s := range m.Sensors {
		x, y := project(s.Pos)
		top := y - 28
		b = append(b, `<line`...)
		b = appendAttr(b, "x1", x)
		b = appendAttr(b, "y1", y)
		b = appendAttr(b, "x2", x)
		b = appendAttr(b, "y2", top)
		b = append(b, ` stroke="#333" stroke-width="2"/><circle`...)
		b = appendAttr(b, "cx", x)
		b = appendAttr(b, "cy", top)
		b = fmt.Appendf(b, ` r="8" fill="%s" stroke="#111"><title>%s %s=`,
			PollutionColor(s.Value, loVal, hiVal), escape(s.ID), escape(s.Species))
		b = AppendTenths(b, s.Value)
		b = append(b, `</title></circle><text`...)
		b = appendAttr(b, "x", x)
		b = appendAttr(b, "y", top-11)
		b = fmt.Appendf(b, ` class="axis" text-anchor="middle">%.0f</text>`, s.Value)
	}
	return closeSVG(b)
}

// appendPolygon opens a <polygon> element and appends its points
// attribute up to the closing quote: the footprint projected and
// raised by dz pixels.
func appendPolygon(b []byte, footprint []geo.LatLon, project func(geo.LatLon) (float64, float64), dz float64) []byte {
	b = append(b, `<polygon points="`...)
	for i, p := range footprint {
		if i > 0 {
			b = append(b, ' ')
		}
		x, y := project(p)
		b = appendPoint(b, x, y-dz)
	}
	return b
}

func sortByLatDesc(order []int, m *citygml.Model) {
	lat := make([]float64, len(order))
	for i, bi := range order {
		lat[i] = m.Buildings[bi].Centroid().Lat
	}
	// Insertion sort keeps this dependency-free and the n is small.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lat[j] > lat[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
}

// --- GeoJSON export -----------------------------------------------------

// geoJSON document fragments.
type geoFeature struct {
	Type       string         `json:"type"`
	Geometry   geoGeometry    `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type geoGeometry struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

// NetworkGeoJSON exports a dataport snapshot as a GeoJSON
// FeatureCollection for municipal GIS tools.
func NetworkGeoJSON(snap dataport.NetworkSnapshot) ([]byte, error) {
	var features []geoFeature
	for _, s := range snap.Sensors {
		features = append(features, geoFeature{
			Type: "Feature",
			Geometry: geoGeometry{
				Type:        "Point",
				Coordinates: []float64{s.Pos.Lon, s.Pos.Lat},
			},
			Properties: map[string]any{
				"kind": "sensor", "id": s.ID, "status": s.Status,
				"battery_pct": s.BatteryPct,
			},
		})
	}
	for _, g := range snap.Gateways {
		features = append(features, geoFeature{
			Type: "Feature",
			Geometry: geoGeometry{
				Type:        "Point",
				Coordinates: []float64{g.Pos.Lon, g.Pos.Lat},
			},
			Properties: map[string]any{"kind": "gateway", "id": g.ID, "status": g.Status},
		})
	}
	for _, l := range snap.Links {
		var sp, gp geo.LatLon
		for _, s := range snap.Sensors {
			if s.ID == l.SensorID {
				sp = s.Pos
			}
		}
		for _, g := range snap.Gateways {
			if g.ID == l.GatewayID {
				gp = g.Pos
			}
		}
		features = append(features, geoFeature{
			Type: "Feature",
			Geometry: geoGeometry{
				Type: "LineString",
				Coordinates: [][]float64{
					{sp.Lon, sp.Lat}, {gp.Lon, gp.Lat},
				},
			},
			Properties: map[string]any{
				"kind": "link", "sensor": l.SensorID, "gateway": l.GatewayID,
				"rssi": l.RSSI, "live": l.Live,
			},
		})
	}
	doc := map[string]any{"type": "FeatureCollection", "features": features}
	return json.MarshalIndent(doc, "", "  ")
}
