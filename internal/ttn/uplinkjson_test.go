package ttn

// The uplink codec against encoding/json, which it replaces on the
// pipeline's hot path. Run
//
//	go test -run '^$' -fuzz FuzzAppendUplink ./internal/ttn
//	go test -run '^$' -fuzz FuzzParseUplink ./internal/ttn
//
// to search beyond the seed corpus every plain `go test` runs.

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sensors"
)

// fuzzUplink builds a message from fuzzed parts. flags: bit 0 gives
// it decoded fields, bit 1 a nil payload, bit 2 nil gateways, bits 3–4
// the gateway count.
func fuzzUplink(app, dev, gw string, raw []byte, flags byte, port uint8, counter uint16, ch int, v1, v2, v3 float64, sec int64, nsec int32, zone int32) *UplinkMessage {
	at := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(zone%(30*3600))))
	msg := &UplinkMessage{
		AppID: app, DevID: dev, DevAddr: strings.ToUpper(dev), Port: port, Counter: counter,
		PayloadRaw: raw,
		Metadata:   Metadata{Time: at, DataRate: gw + "/125kHz", Channel: ch},
	}
	if flags&2 != 0 {
		msg.PayloadRaw = nil
	} else if msg.PayloadRaw == nil {
		msg.PayloadRaw = []byte{}
	}
	// Readings of one decimal, as the payload codec produces, beside the
	// raw fuzzed values.
	d1, d2 := math.Round(v1*10)/10, math.Round(v2*10)/10
	if flags&1 != 0 {
		msg.Fields = &sensors.Measurement{Time: at.Add(-time.Second), CO2: d1, NO2: d2, PM10: v1, PM25: v2,
			TemperatureC: v3, HumidityPct: -d1, PressureHPa: d2 + 900, BatteryPct: math.Round(v3*10) / 10}
	}
	if flags&4 == 0 {
		msg.Metadata.Gateways = []GatewayMeta{}
		for i := 0; i < int(flags>>3&3); i++ {
			msg.Metadata.Gateways = append(msg.Metadata.Gateways, GatewayMeta{GatewayID: gw, RSSI: d1 - float64(i), SNR: v3})
		}
	}
	return msg
}

func FuzzAppendUplink(f *testing.F) {
	pilot := t0.Unix()
	f.Add("ctt", "ctt-node-07", "gw-01", []byte{1, 2, 3, 4}, byte(1|1<<3), uint8(1), uint16(9), 2, 412.0, 17.3, -4.25, pilot, int32(0), int32(0))
	f.Add("ctt", "ctt-node-07", "SF9BW125", []byte(nil), byte(1|2|3<<3), uint8(255), uint16(65535), -1, 1e21, 1e-7, math.Copysign(0, -1), pilot, int32(999999999), int32(3600))
	f.Add(`we"ird<&>\`, "\x01é ", "\xff", []byte{}, byte(4), uint8(0), uint16(0), 0, 0.1, 0.2, 0.3, int64(-62135596800), int32(1), int32(-5400))
	f.Add("ctt", "n", "g", []byte{0}, byte(1), uint8(1), uint16(1), 1, math.NaN(), 1.0, 1.0, pilot, int32(0), int32(0))
	f.Add("ctt", "n", "g", []byte{0}, byte(1<<3), uint8(1), uint16(1), 1, 1.0, math.Inf(-1), 1.0, pilot, int32(0), int32(0))
	f.Add("ctt", "n", "g", []byte{0}, byte(0), uint8(1), uint16(1), 1, 1.0, 1.0, 1.0, int64(253402300800), int32(0), int32(0)) // year 10000
	f.Add("ctt", "n", "g", []byte{0}, byte(0), uint8(1), uint16(1), 1, 1.0, 1.0, 1.0, pilot, int32(0), int32(24*3600+1))       // zone hour 24
	f.Fuzz(func(t *testing.T, app, dev, gw string, raw []byte, flags byte, port uint8, counter uint16, ch int, v1, v2, v3 float64, sec int64, nsec int32, zone int32) {
		msg := fuzzUplink(app, dev, gw, raw, flags, port, counter, ch, v1, v2, v3, sec, nsec, zone)
		got, err := appendUplink([]byte("x"), msg)
		want, jerr := json.Marshal(msg)
		if (err != nil) != (jerr != nil) || (err != nil && err.Error() != jerr.Error()) {
			t.Fatalf("error %v, encoding/json %v", err, jerr)
		}
		if err != nil {
			return
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("appendUplink:\n %s\nencoding/json:\n %s", got[1:], want)
		}
		checkParse(t, want)
	})
}

// checkParse holds ParseUplink to its contract on data: it never
// panics (the fuzzer reports one), and what it accepts encoding/json
// accepts and decodes to a deeply equal message.
func checkParse(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	msg, err := ParseUplink(data)
	var want UplinkMessage
	jerr := json.Unmarshal(data, &want)
	if err != nil {
		return false
	}
	if jerr != nil {
		t.Fatalf("ParseUplink accepts %q, encoding/json refuses it: %v", data, jerr)
	}
	if !reflect.DeepEqual(*msg, want) {
		t.Fatalf("ParseUplink(%q):\n %+v\nencoding/json:\n %+v", data, *msg, want)
	}
	return true
}

// ttnV2Uplink is an uplink as The Things Network's v2 data API
// delivers it, with metadata this package does not model.
const ttnV2Uplink = `{
  "app_id": "ctt", "dev_id": "ctt-node-03", "hardware_serial": "0102030405060708",
  "port": 1, "counter": 17, "is_retry": false, "confirmed": false,
  "payload_raw": "AQGkAgA1", "payload_fields": {"Time": "2017-03-07T12:00:00Z", "CO2": 420, "NO2": 5.3, "extra": {"a": [1, 2.5e-3, null, true]}},
  "metadata": {
    "time": "2017-03-07T12:00:00.123456789+01:00", "frequency": 868.1, "modulation": "LORA",
    "data_rate": "SF9BW125", "airtime": 185344000, "coding_rate": "4/5", "frequency_channel": 2,
    "gateways": [
      {"gtw_id": "eui-b827ebfffe000001", "timestamp": 2217084259, "time": "", "channel": 2, "rssi": -87, "snr": 9.25, "rf_chain": 1, "latitude": 63.43, "longitude": 10.39},
      {"gtw_id": "gw-02", "rssi": -101.5, "snr": -3, "location_source": "registry"}
    ],
    "latitude": 63.4305, "longitude": 10.3951, "location_source": "registry"
  }
}`

func FuzzParseUplink(f *testing.F) {
	for _, msg := range []*UplinkMessage{
		fuzzUplink("ctt", "ctt-node-07", "gw-01", []byte{1, 1, 164}, 1|2<<3, 1, 9, 2, 412, 17.3, -4.25, t0.Unix(), 0, 0),
		fuzzUplink(`a"<\`, "é ", "gw", nil, 2|4, 0, 0, -3, 0.5, 1e-7, 1e21, 0, 5, 3600),
	} {
		data, err := appendUplink(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(ttnV2Uplink))
	f.Add([]byte(`{"app_id":null,"payload_raw":"","payload_fields":null,"metadata":{"gateways":[null,{}]}}`))
	f.Add([]byte(`{"app_id":"a","APP_ID":"b"}`))
	f.Add([]byte(`{"port":1.0,"counter":1e2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
		// Whatever encoding/json reads, the appender writes again and
		// the parser must accept.
		var msg UplinkMessage
		if json.Unmarshal(data, &msg) != nil {
			return
		}
		if again, err := appendUplink(nil, &msg); err == nil && !checkParse(t, again) {
			t.Fatalf("ParseUplink refuses the appender's %s", again)
		}
	})
}

// TestParseUplinkAccepts: the TTN v2 document and every kind of
// unknown value decode as encoding/json decodes them.
func TestParseUplinkAccepts(t *testing.T) {
	for _, doc := range []string{
		ttnV2Uplink,
		`{}`,
		` {"app_id" : "aé\n\"\/", "x": {"y": [[], {}, "zA", -0.5e+3, true, false, null]}} `,
		`{"app_id":null,"port":null,"payload_raw":null,"payload_fields":{},"metadata":null}`,
		`{"payload_raw":"","metadata":{"gateways":[]}}`,
		`{"payload_raw":"AQ\nI=","metadata":{"gateways":[null,{"gtw_id":"g","rssi":-0}]}}`,
		`{"metadata":{"time":"2017-03-07T12:00:00+23:59","frequency_channel":-0}}`,
	} {
		if !checkParse(t, []byte(doc)) {
			t.Errorf("ParseUplink refuses %s", doc)
		}
	}
}

// TestParseUplinkRefuses: malformed JSON, values of the wrong type,
// and what encoding/json would settle by rules the parser does not
// copy (last duplicate wins, case-insensitive key match, surrogate
// and invalid UTF-8 replacement).
func TestParseUplinkRefuses(t *testing.T) {
	for _, doc := range []string{
		``, `null`, `[]`, `{bad`, `{"app_id":"a"} x`, `{"app_id":"a",}`, `{"app_id":"a\x01"}`,
		`{"app_id":"\q"}`, `{"app_id":"\u12"}`, `{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":tru}`,
		`{"port":256}`, `{"port":-1}`, `{"port":1.0}`, `{"counter":1e2}`, `{"counter":"1"}`,
		`{"metadata":{"frequency_channel":1.5}}`, `{"app_id":1}`,
		`{"payload_raw":"!!"}`, `{"payload_raw":[1,2]}`, `{"payload_fields":[]}`,
		`{"metadata":{"time":"yesterday"}}`, `{"metadata":{"time":1}}`, `{"metadata":{"gateways":{}}}`,
		`{"payload_fields":{"CO2":1e400}}`,
		`{"app_id":"a","app_id":"b"}`, `{"APP_ID":"b"}`, `{"payload_fields":{"co2":1}}`, "{\"metadata\":{\"gatewayſ\":[]}}",
		`{"app_id":"\ud83d\ude00"}`, "{\"app_id\":\"\xff\"}",
		`{"x":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`,
	} {
		if _, err := ParseUplink([]byte(doc)); err == nil {
			t.Errorf("ParseUplink accepts %q", doc)
		}
	}
}
