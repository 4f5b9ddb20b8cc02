package ttn

// The uplink document without reflection. appendUplink writes the
// bytes json.Marshal writes for an UplinkMessage; ParseUplink reads
// them back. The parser accepts a subset of what json.Unmarshal
// accepts — everything the appender emits, plus unknown keys of any
// JSON type at any level (TTN v2 documents carry more metadata than
// this package models) — and decodes it to the message json.Unmarshal
// decodes. Besides what encoding/json refuses too, it refuses what
// encoding/json would resolve by its own rules rather than guess at
// them: duplicate keys, keys that match a field only
// case-insensitively (and unknown non-ASCII keys, which might),
// surrogate \u escapes and invalid UTF-8.

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/jsonenc"
	"repro/internal/sensors"
)

// appendUplink appends msg as json.Marshal renders it. A value
// encoding/json refuses (a NaN or infinite reading, a time outside
// what RFC 3339 can say) is reported with json.Marshal's own error.
func appendUplink(b []byte, msg *UplinkMessage) ([]byte, error) {
	b = append(b, `{"app_id":`...)
	b = jsonenc.AppendString(b, msg.AppID)
	b = append(b, `,"dev_id":`...)
	b = jsonenc.AppendString(b, msg.DevID)
	b = append(b, `,"dev_addr":`...)
	b = jsonenc.AppendString(b, msg.DevAddr)
	b = append(b, `,"port":`...)
	b = strconv.AppendUint(b, uint64(msg.Port), 10)
	b = append(b, `,"counter":`...)
	b = strconv.AppendUint(b, uint64(msg.Counter), 10)
	b = append(b, `,"payload_raw":`...)
	if msg.PayloadRaw == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '"')
		b = base64.StdEncoding.AppendEncode(b, msg.PayloadRaw)
		b = append(b, '"')
	}
	ok := true
	if m := msg.Fields; m != nil {
		b = append(b, `,"payload_fields":{"Time":`...)
		b, ok = appendTime(b, m.Time)
		for i, v := range [...]float64{m.CO2, m.NO2, m.PM10, m.PM25, m.TemperatureC, m.HumidityPct, m.PressureHPa, m.BatteryPct} {
			b = append(b, ',', '"')
			b = append(b, measurementFields[i+1]...)
			b = append(b, '"', ':')
			b, ok = appendFloat(b, v, ok)
		}
		b = append(b, '}')
	}
	b = append(b, `,"metadata":{"time":`...)
	b, okTime := appendTime(b, msg.Metadata.Time)
	ok = ok && okTime
	b = append(b, `,"data_rate":`...)
	b = jsonenc.AppendString(b, msg.Metadata.DataRate)
	b = append(b, `,"frequency_channel":`...)
	b = strconv.AppendInt(b, int64(msg.Metadata.Channel), 10)
	b = append(b, `,"gateways":`...)
	if msg.Metadata.Gateways == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, g := range msg.Metadata.Gateways {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"gtw_id":`...)
			b = jsonenc.AppendString(b, g.GatewayID)
			b = append(b, `,"rssi":`...)
			b, ok = appendFloat(b, g.RSSI, ok)
			b = append(b, `,"snr":`...)
			b, ok = appendFloat(b, g.SNR, ok)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if !ok {
		_, err := json.Marshal(msg)
		if err == nil {
			err = errors.New("ttn: uplink appender refused a value encoding/json accepts")
		}
		return nil, err
	}
	return append(b, '}', '}'), nil
}

// appendFloat appends f if every value so far was encodable; ok
// reports whether f was too.
func appendFloat(b []byte, f float64, ok bool) ([]byte, bool) {
	if !ok {
		return b, false
	}
	out, err := jsonenc.AppendFloat(b, f)
	if err != nil {
		return b, false
	}
	return out, true
}

// appendTime appends t as time.Time's MarshalJSON renders it.
func appendTime(b []byte, t time.Time) ([]byte, bool) {
	b = append(b, '"')
	out, err := t.AppendText(b)
	if err != nil {
		return b, false
	}
	return append(out, '"'), true
}

// The JSON keys of each object, in the structs' field order.
var (
	uplinkFields      = []string{"app_id", "dev_id", "dev_addr", "port", "counter", "payload_raw", "payload_fields", "metadata"}
	measurementFields = []string{"Time", "CO2", "NO2", "PM10", "PM25", "TemperatureC", "HumidityPct", "PressureHPa", "BatteryPct"}
	metadataFields    = []string{"time", "data_rate", "frequency_channel", "gateways"}
	gatewayFields     = []string{"gtw_id", "rssi", "snr"}
)

// maxSkipDepth bounds the nesting of unknown values, far inside
// encoding/json's own limit of 10000.
const maxSkipDepth = 256

var errUplinkSyntax = errors.New("invalid or unsupported uplink JSON")

// ParseUplink decodes a published uplink JSON document.
func ParseUplink(payload []byte) (*UplinkMessage, error) {
	s := scanner{b: payload}
	msg := new(UplinkMessage)
	if !s.uplink(msg) || !s.end() {
		return nil, fmt.Errorf("ttn: parse uplink: %w at offset %d", errUplinkSyntax, s.i)
	}
	return msg, nil
}

// scanner reads one uplink document; every method reports false on
// input it refuses, leaving i near the offending byte.
type scanner struct {
	b     []byte
	i     int
	tmp   []byte // a key or string with escapes, decoded
	depth int    // containers open inside skipped values
}

// The readers below take null for a field's zero value: that is what
// encoding/json leaves in a field it sees null for (or clears a
// pointer or slice to), and duplicate keys are refused, so every field
// is still zero when its value is read.

func (s *scanner) uplink(msg *UplinkMessage) bool {
	return s.object(uplinkFields, func(f int) (ok bool) {
		switch f {
		case 0:
			msg.AppID, ok = s.stringVal()
		case 1:
			msg.DevID, ok = s.stringVal()
		case 2:
			msg.DevAddr, ok = s.stringVal()
		case 3:
			var v uint64
			v, ok = s.uintVal(8)
			msg.Port = uint8(v)
		case 4:
			var v uint64
			v, ok = s.uintVal(16)
			msg.Counter = uint16(v)
		case 5:
			msg.PayloadRaw, ok = s.bytesVal()
		case 6:
			if s.null() {
				return true
			}
			msg.Fields = new(sensors.Measurement)
			ok = s.measurement(msg.Fields)
		default:
			ok = s.null() || s.metadata(&msg.Metadata)
		}
		return ok
	})
}

func (s *scanner) measurement(m *sensors.Measurement) bool {
	return s.object(measurementFields, func(f int) (ok bool) {
		switch f {
		case 0:
			ok = s.timeVal(&m.Time)
		case 1:
			m.CO2, ok = s.floatVal()
		case 2:
			m.NO2, ok = s.floatVal()
		case 3:
			m.PM10, ok = s.floatVal()
		case 4:
			m.PM25, ok = s.floatVal()
		case 5:
			m.TemperatureC, ok = s.floatVal()
		case 6:
			m.HumidityPct, ok = s.floatVal()
		case 7:
			m.PressureHPa, ok = s.floatVal()
		default:
			m.BatteryPct, ok = s.floatVal()
		}
		return ok
	})
}

func (s *scanner) metadata(md *Metadata) bool {
	return s.object(metadataFields, func(f int) (ok bool) {
		switch f {
		case 0:
			ok = s.timeVal(&md.Time)
		case 1:
			md.DataRate, ok = s.stringVal()
		case 2:
			var v int64
			v, ok = s.intVal()
			md.Channel = int(v)
		default:
			if s.null() {
				return true
			}
			md.Gateways = []GatewayMeta{}
			ok = s.array(func() bool {
				md.Gateways = append(md.Gateways, GatewayMeta{})
				return s.null() || s.gateway(&md.Gateways[len(md.Gateways)-1])
			})
		}
		return ok
	})
}

func (s *scanner) gateway(g *GatewayMeta) bool {
	return s.object(gatewayFields, func(f int) (ok bool) {
		switch f {
		case 0:
			g.GatewayID, ok = s.stringVal()
		case 1:
			g.RSSI, ok = s.floatVal()
		default:
			g.SNR, ok = s.floatVal()
		}
		return ok
	})
}

// object reads an object whose known keys are names, calling field
// with a key's index to read its value; unknown keys are skipped
// (with no names, every key is).
func (s *scanner) object(names []string, field func(int) bool) bool {
	if !s.consume('{') {
		return false
	}
	var seen uint64
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		f := -1
		for i, name := range names {
			if string(key) == name {
				f = i
				break
			}
		}
		switch {
		case f >= 0:
			if seen&(1<<f) != 0 || !field(f) {
				return false
			}
			seen |= 1 << f
		case len(names) > 0 && foldsToField(key, names):
			return false
		default:
			if !s.skip() {
				return false
			}
		}
		if s.consume(',') {
			continue
		}
		return s.consume('}')
	}
}

// array reads an array, calling elem for each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(',') {
			continue
		}
		return s.consume(']')
	}
}

func (s *scanner) stringVal() (string, bool) {
	if s.null() {
		return "", true
	}
	v, ok := s.str()
	return string(v), ok
}

// bytesVal reads base64 as encoding/json does for a []byte: padded
// standard alphabet, line breaks ignored, "" an empty non-nil slice.
func (s *scanner) bytesVal() ([]byte, bool) {
	if s.null() {
		return nil, true
	}
	v, ok := s.str()
	if !ok {
		return nil, false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(v)))
	n, err := base64.StdEncoding.Decode(out, v)
	return out[:n], err == nil
}

// timeVal hands the raw string to time.Time's UnmarshalJSON, as
// encoding/json does.
func (s *scanner) timeVal(dst *time.Time) bool {
	if s.null() {
		return true
	}
	s.ws()
	start := s.i
	if _, ok := s.str(); !ok {
		return false
	}
	return dst.UnmarshalJSON(s.b[start:s.i]) == nil
}

func (s *scanner) floatVal() (float64, bool) {
	if s.null() {
		return 0, true
	}
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// uintVal reads an unsigned integer of the given width; like
// encoding/json it refuses a fraction or exponent, even "1.0".
func (s *scanner) uintVal(bits int) (uint64, bool) {
	if s.null() {
		return 0, true
	}
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseUint(string(lit), 10, bits)
	return v, err == nil
}

func (s *scanner) intVal() (int64, bool) {
	if s.null() {
		return 0, true
	}
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return v, err == nil
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool { return s.literal("null") }

func (s *scanner) literal(lit string) bool {
	s.ws()
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// number reads a number literal by JSON's grammar and reports whether
// it is an integer (no fraction, no exponent).
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.i < len(s.b) && '1' <= s.b[s.i] && s.b[s.i] <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.b[start:s.i], integer, true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// str reads a string and returns its decoded bytes, valid UTF-8:
// a slice of the input when it has no escapes, else of s.tmp (valid
// until the next call).
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, utf8.Valid(v)
		case c == '\\':
			s.tmp = append(s.tmp[:0], s.b[start:s.i]...)
			return s.escaped()
		case c < ' ':
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// escaped decodes the rest of a string from its first backslash.
func (s *scanner) escaped() ([]byte, bool) {
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.tmp, utf8.Valid(s.tmp)
		case c < ' ':
			return nil, false
		case c != '\\':
			s.tmp = append(s.tmp, c)
			s.i++
			continue
		}
		if s.i+1 >= len(s.b) {
			return nil, false
		}
		e := s.b[s.i+1]
		s.i += 2
		switch e {
		case '"', '\\', '/':
			s.tmp = append(s.tmp, e)
		case 'b':
			s.tmp = append(s.tmp, '\b')
		case 'f':
			s.tmp = append(s.tmp, '\f')
		case 'n':
			s.tmp = append(s.tmp, '\n')
		case 'r':
			s.tmp = append(s.tmp, '\r')
		case 't':
			s.tmp = append(s.tmp, '\t')
		case 'u':
			r, ok := s.hex4()
			if !ok || (0xD800 <= r && r < 0xE000) {
				return nil, false
			}
			s.tmp = utf8.AppendRune(s.tmp, r)
		default:
			return nil, false
		}
	}
	return nil, false
}

// hex4 reads the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, bool) {
	if len(s.b)-s.i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s.b[s.i : s.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	s.i += 4
	return r, true
}

// skip validates and skips one value of any type. Its strings are
// held to str's rules, stricter than encoding/json's: no invalid UTF-8,
// no surrogate escapes.
func (s *scanner) skip() bool {
	s.ws()
	if s.i >= len(s.b) {
		return false
	}
	switch open := s.b[s.i]; open {
	case '{', '[':
		if s.depth == maxSkipDepth {
			return false
		}
		s.depth++
		ok := open == '{' && s.object(nil, nil) || open == '[' && s.array(s.skip)
		s.depth--
		return ok
	case '"':
		_, ok := s.str()
		return ok
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.null()
	default:
		_, _, ok := s.number()
		return ok
	}
}

// foldsToField reports whether an unknown key would still reach one
// of names through encoding/json's case-insensitive match. A few
// non-ASCII runes fold to ASCII letters there ("ſ" to "S", the Kelvin
// sign to "K"), so every non-ASCII key counts.
func foldsToField(key []byte, names []string) bool {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return true
		}
	}
	for _, name := range names {
		if strings.EqualFold(string(key), name) {
			return true
		}
	}
	return false
}
