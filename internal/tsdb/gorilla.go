package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"sync"
)

// Chunk payload codec. Timestamps are Gorilla delta-of-delta
// (Pelkonen et al., VLDB 2015) with variable-width buckets; values
// take one of two encodings, chosen per chunk at seal time from the
// data alone (encodeBlock):
//
//   - decimal: every reading in this system crosses the LoRaWAN link
//     as a scaled int16 (internal/sensors/codec.go), so a chunk whose
//     values are all exactly k/10^s stores the integers k as zig-zag
//     deltas. Exactness is checked bit for bit on every value before
//     the encoding is chosen; the codec is lossless by construction.
//   - XOR: Gorilla's float encoding, the fallback for series that are
//     not decimal (net.rssi, traffic.jamfactor, hourly means).
//
// Measured on the pilot's week (2.0 M points, 256-point chunks):
// timestamps cost 2.5 bits/point; XOR values cost 39.7 bits/point —
// 8.9 on integer CO₂ but 52–58 on every ×10 reading, whose mantissa
// noise XOR cannot see through — and decimal values 8–9 bits/point on
// the 84 % of chunks that qualify, 13.8 over all points.
// BenchmarkGorillaEncode reports both per sensor class.
//
// A payload starts with a tag byte: tagXOR, or tagDecimal|scale.
// Payloads sealed before the tag existed (first byte 0x00) are not
// read: the block files and WAL records that could carry one are
// refused at open (docs/FORMAT.md §4), and a cursor fails on one like
// on any unknown tag. docs/FORMAT.md §2.7 is the normative layout.
//
// Bit I/O is word-granular: both writer and reader buffer a 64-bit
// word so a multi-bit field costs one masked shift instead of one
// call per bit. The byte stream is MSB-first with a zero-padded final
// byte; FuzzGorillaCodec holds the reader to the bit-at-a-time
// reference in gorilla_ref_test.go.

const (
	tagXOR     = 0x01
	tagDecimal = 0x10 // low nibble: the decimal scale, 0..maxDecimalScale

	maxDecimalScale = 6
)

var pow10 = [maxDecimalScale + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// bitWriter appends bits to a byte slice, MSB first. Pending bits
// accumulate in the low end of acc and spill to buf eight bytes at a
// time.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits, low-aligned: first-written bit highest
	n   uint   // number of pending bits in acc (0..63)
}

// lowMask returns a mask of the low n bits (n ≤ 64).
func lowMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

func (w *bitWriter) writeBit(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.writeBits(v, 1)
}

// writeBits appends the low n bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	v &= lowMask(n)
	if free := 64 - w.n; n >= free {
		// Fill the word and spill it; the remainder starts a new one.
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<(free%64)|v>>(n-free))
		w.acc = v & lowMask(n-free)
		w.n = n - free
		return
	}
	w.acc = w.acc<<n | v
	w.n += n
}

// bytes flushes the pending word and returns the finished stream. The
// final partial byte is zero-padded, exactly like bit-at-a-time
// writes into fresh bytes.
func (w *bitWriter) bytes() []byte {
	word := w.acc << (64 - w.n) // MSB-align the n pending bits
	for done := uint(0); done < w.n; done += 8 {
		w.buf = append(w.buf, byte(word>>(56-done)))
	}
	w.acc, w.n = 0, 0
	return w.buf
}

// writeDoD uses the Gorilla bucket scheme scaled for millisecond
// resolution: 0 → '0'; [-8191,8192] → '10'+14b; [-65535,65536] →
// '110'+17b; [-524287,524288] → '1110'+20b; else '1111'+64b.
func (w *bitWriter) writeDoD(dod int64) {
	switch {
	case dod == 0:
		w.writeBit(false)
	case dod >= -8191 && dod <= 8192:
		w.writeBits(0b10<<14|uint64(dod+8191)&lowMask(14), 16)
	case dod >= -65535 && dod <= 65536:
		w.writeBits(0b110<<17|uint64(dod+65535)&lowMask(17), 20)
	case dod >= -524287 && dod <= 524288:
		w.writeBits(0b1110<<20|uint64(dod+524287)&lowMask(20), 24)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(uint64(dod), 64)
	}
}

// writeIntDelta stores one decimal-integer delta, zig-zagged so small
// magnitudes of either sign are small codes: 0 → '0'; [-64,63] →
// '10'+7b; [-2048,2047] → '110'+12b; [-2^19,2^19) → '1110'+20b; else
// '1111'+64b.
func (w *bitWriter) writeIntDelta(d int64) {
	z := uint64(d<<1) ^ uint64(d>>63)
	switch {
	case z == 0:
		w.writeBit(false)
	case z < 1<<7:
		w.writeBits(0b10<<7|z, 9)
	case z < 1<<12:
		w.writeBits(0b110<<12|z, 15)
	case z < 1<<20:
		w.writeBits(0b1110<<20|z, 24)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(z, 64)
	}
}

// bitReader consumes bits written by bitWriter. Bits are prefetched
// into acc a word (or trailing byte run) at a time and handed out
// with one shift per field.
type bitReader struct {
	buf []byte
	pos int    // next unread byte
	acc uint64 // prefetched bits, MSB-aligned: top n bits valid, rest zero
	n   uint   // valid bits in acc
}

var (
	errOutOfBits  = errors.New("tsdb: compressed block truncated")
	errBadPayload = errors.New("tsdb: compressed block corrupt")
)

// refill tops the accumulator up from buf: a whole word when the
// accumulator is empty and eight bytes remain, byte by byte otherwise.
func (r *bitReader) refill() {
	if r.n == 0 && r.pos+8 <= len(r.buf) {
		r.acc = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		r.n = 64
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

func (r *bitReader) readBit() (bool, error) {
	v, err := r.readBits(1)
	return v == 1, err
}

// readBits returns the next n bits (n ≤ 64), MSB first.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if r.n < n {
		r.refill()
		if r.n < n {
			if r.pos < len(r.buf) {
				// A field wider than refill can top up in one go (an
				// unaligned accumulator caps out below 64): drain the
				// accumulator, then read the rest from a fresh word.
				k := r.n
				hi, err := r.readBits(k)
				if err != nil {
					return 0, err
				}
				lo, err := r.readBits(n - k)
				if err != nil {
					return 0, err
				}
				return hi<<(n-k) | lo, nil
			}
			return 0, errOutOfBits
		}
	}
	v := r.acc >> (64 - n)
	r.acc <<= n
	r.n -= n
	return v, nil
}

// readBucket consumes one bucket prefix — '0', '10', '110', '1110' or
// '1111' — and returns how many ones it held. Both bucket schemes
// (writeDoD, writeIntDelta) share the prefixes and differ only in
// payload widths.
func (r *bitReader) readBucket() (int, error) {
	if r.n < 4 {
		r.refill()
	}
	// Bits past the valid ones are zero, so near the end of the stream
	// a prefix reads as terminated early and the length check catches
	// the ones that really were cut short.
	ones := bits.LeadingZeros64(^r.acc)
	width := uint(ones + 1)
	if ones >= 4 {
		ones, width = 4, 4
	}
	if r.n < width {
		return 0, errOutOfBits
	}
	r.acc <<= width
	r.n -= width
	return ones, nil
}

var (
	dodWidth = [5]uint{0, 14, 17, 20, 64}
	dodBias  = [5]int64{0, 8191, 65535, 524287, 0}
	intWidth = [5]uint{0, 7, 12, 20, 64}
)

func (r *bitReader) readDoD() (int64, error) {
	b, err := r.readBucket()
	if b == 0 || err != nil {
		return 0, err
	}
	v, err := r.readBits(dodWidth[b])
	return int64(v) - dodBias[b], err
}

func (r *bitReader) readIntDelta() (int64, error) {
	b, err := r.readBucket()
	if b == 0 || err != nil {
		return 0, err
	}
	z, err := r.readBits(intWidth[b])
	return int64(z>>1) ^ -int64(z&1), err
}

// chunkEncoding names how a sealed chunk stores its values.
type chunkEncoding uint8

const (
	encXOR chunkEncoding = iota
	encDecimal
)

// toDecimal reports the integer k with float64(k)/p bit-identical to
// v, if there is one below 2^53. NaN, ±Inf and −0 have none.
func toDecimal(v, p float64) (int64, bool) {
	f := math.Round(v * p)
	if !(math.Abs(f) < 1<<53) {
		return 0, false
	}
	k := int64(f)
	return k, math.Float64bits(float64(k)/p) == math.Float64bits(v)
}

// decimalScale finds the smallest scale at which every value of pts
// is an exact decimal and fills ks with the scaled integers. A value
// that fails bumps the scale and restarts the pass, so ks is always
// verified in full at the scale returned; ok is false when some value
// is not a decimal at any scale up to maxDecimalScale.
func decimalScale(pts []Point, ks []int64) (scale int, ok bool) {
	for i := 0; i < len(pts); {
		k, fits := toDecimal(pts[i].Value, pow10[scale])
		if !fits {
			if scale == maxDecimalScale {
				return 0, false
			}
			scale++
			i = 0
			continue
		}
		ks[i] = k
		i++
	}
	return scale, true
}

var encodeScratch = sync.Pool{New: func() any { return new(bitWriter) }}

// encodeBlock compresses a non-empty, timestamp-ordered point run
// into a tagged payload and reports the value encoding it chose:
//
//	tag byte | ts₀ (64b) | value₀ | (DoD(tsᵢ) valueᵢ)*
//
// The delta before the first point counts as zero, so the first delta
// is an ordinary DoD code with the full-width escape behind it.
// Decimal values are writeIntDelta codes of kᵢ−kᵢ₋₁ with k₋₁ = 0; XOR
// values are the first value's 64 bits, then Gorilla XOR codes.
func encodeBlock(pts []Point) ([]byte, chunkEncoding) {
	var kbuf [headSealSize]int64
	ks := kbuf[:]
	if len(pts) > len(ks) {
		ks = make([]int64, len(pts))
	}
	// Built in a pooled buffer and copied out at its exact size: sealed
	// blocks live in memory until flushed, and append's slack would
	// stay with them.
	w := encodeScratch.Get().(*bitWriter)
	defer encodeScratch.Put(w)
	w.buf = append(w.buf[:0], 0)
	enc := encXOR
	if scale, ok := decimalScale(pts, ks[:len(pts)]); ok {
		enc = encDecimal
		w.buf[0] = tagDecimal | byte(scale)
		w.writeDecimalPoints(pts, ks)
	} else {
		w.buf[0] = tagXOR
		w.writeXORPoints(pts)
	}
	data := make([]byte, len(w.bytes()))
	copy(data, w.buf)
	return data, enc
}

// writeDecimalPoints writes a payload body whose values are the
// scaled integers ks.
func (w *bitWriter) writeDecimalPoints(pts []Point, ks []int64) {
	w.writeBits(uint64(pts[0].Timestamp), 64)
	w.writeIntDelta(ks[0])
	var prevDelta int64
	for i := 1; i < len(pts); i++ {
		delta := pts[i].Timestamp - pts[i-1].Timestamp
		w.writeDoD(delta - prevDelta)
		prevDelta = delta
		w.writeIntDelta(ks[i] - ks[i-1])
	}
}

// writeXORPoints writes a payload body with Gorilla XOR values: each
// value XORed with its predecessor, the meaningful bits stored under
// a leading/trailing-zero window that is reused while it fits.
func (w *bitWriter) writeXORPoints(pts []Point) {
	prev := math.Float64bits(pts[0].Value)
	w.writeBits(uint64(pts[0].Timestamp), 64)
	w.writeBits(prev, 64)
	var prevDelta int64
	haveWindow := false
	var winLeading, winTrailing uint8
	for i := 1; i < len(pts); i++ {
		delta := pts[i].Timestamp - pts[i-1].Timestamp
		w.writeDoD(delta - prevDelta)
		prevDelta = delta

		v := math.Float64bits(pts[i].Value)
		xor := v ^ prev
		prev = v
		if xor == 0 {
			w.writeBit(false)
			continue
		}
		leading := uint8(bits.LeadingZeros64(xor))
		trailing := uint8(bits.TrailingZeros64(xor))
		if leading > 31 {
			leading = 31
		}
		if haveWindow && leading >= winLeading && trailing >= winTrailing {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>winTrailing, uint(64-winLeading-winTrailing))
			continue
		}
		haveWindow, winLeading, winTrailing = true, leading, trailing
		sig := 64 - leading - trailing
		// '11' marker, 5 bits of leading, then sig-1 in 6 bits (sig in 1..64).
		w.writeBits(0b11<<11|uint64(leading)<<6|uint64(sig-1), 13)
		w.writeBits(xor>>trailing, uint(sig))
	}
}

// Payload layouts a blockCursor reads.
const (
	layoutXOR = iota
	layoutDecimal
	layoutBad
)

// blockCursor decodes a compressed block one point per next() call —
// the read primitive under every scan, so a downsample fold or k-way
// merge consumes points without the block ever materializing.
type blockCursor struct {
	r        bitReader
	n        int // total points in the block
	i        int // points decoded so far
	layout   uint8
	ts       int64
	delta    int64
	val      uint64  // XOR layout: the current value's bits
	k        int64   // decimal layout: the current scaled integer
	div      float64 // decimal layout: 10^scale
	leading  uint8
	trailing uint8
}

// reset points the cursor at a block, reusing its storage. The first
// byte selects the layout; an unknown tag surfaces as an error from
// the first next().
func (c *blockCursor) reset(data []byte, n int) {
	*c = blockCursor{r: bitReader{buf: data, pos: 1}, n: n, layout: layoutBad}
	if len(data) == 0 {
		return
	}
	switch tag := data[0]; {
	case tag == tagXOR:
		c.layout = layoutXOR
	case tag&^0x0F == tagDecimal && tag&0x0F <= maxDecimalScale:
		c.layout = layoutDecimal
		c.div = pow10[tag&0x0F]
	}
}

// next decodes the next point; ok is false at the end of the block.
func (c *blockCursor) next() (Point, bool, error) {
	if c.i >= c.n {
		return Point{}, false, nil
	}
	var err error
	switch {
	case c.i == 0:
		err = c.readFirst()
	default:
		var dod int64
		if dod, err = c.r.readDoD(); err != nil {
			break
		}
		c.delta += dod
		c.ts += c.delta
		if c.layout == layoutDecimal {
			var d int64
			d, err = c.r.readIntDelta()
			c.k += d
		} else {
			err = c.readXOR()
		}
	}
	if err != nil {
		return Point{}, false, err
	}
	c.i++
	if c.layout == layoutDecimal {
		return Point{Timestamp: c.ts, Value: float64(c.k) / c.div}, true, nil
	}
	return Point{Timestamp: c.ts, Value: math.Float64frombits(c.val)}, true, nil
}

// readFirst decodes the first point: a raw timestamp, then the first
// value in the layout's own form.
func (c *blockCursor) readFirst() error {
	if c.layout == layoutBad {
		return errBadPayload
	}
	tsBits, err := c.r.readBits(64)
	if err != nil {
		return err
	}
	c.ts = int64(tsBits)
	if c.layout == layoutDecimal {
		c.k, err = c.r.readIntDelta()
		return err
	}
	c.val, err = c.r.readBits(64)
	return err
}

// readXOR applies one XOR-encoded value delta to the cursor state.
func (c *blockCursor) readXOR() error {
	nonzero, err := c.r.readBit()
	if err != nil {
		return err
	}
	if !nonzero {
		return nil
	}
	newWindow, err := c.r.readBit()
	if err != nil {
		return err
	}
	if newWindow {
		hdr, err := c.r.readBits(11) // 5 bits leading + 6 bits sig-1
		if err != nil {
			return err
		}
		c.leading = uint8(hdr >> 6)
		sig := uint8(hdr&lowMask(6)) + 1
		if c.leading+sig > 64 {
			return errBadPayload
		}
		c.trailing = 64 - c.leading - sig
	}
	x, err := c.r.readBits(uint(64 - c.leading - c.trailing))
	if err != nil {
		return err
	}
	c.val ^= x << c.trailing
	return nil
}

// decodeBlock expands a compressed block back into points.
func decodeBlock(buf []byte, n int) ([]Point, error) {
	if n == 0 {
		return nil, nil
	}
	var c blockCursor
	c.reset(buf, n)
	out := make([]Point, 0, n)
	for {
		p, ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}
