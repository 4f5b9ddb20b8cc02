package tsdb

// Reference Gorilla codec: the original bit-at-a-time implementation,
// kept as a test oracle for the XOR layout (tag byte, then the stream
// with every delta after the first point as a delta-of-delta).
// TestGorillaRefParity and FuzzGorillaCodec hold the production
// cursor to it.

import "math"

// refBitWriter appends bits to a byte slice, MSB first, one at a time.
type refBitWriter struct {
	buf  []byte
	nBit uint8 // bits used in the last byte (0..7); 0 means last byte full/absent
}

func (w *refBitWriter) writeBit(b bool) {
	if w.nBit == 0 {
		w.buf = append(w.buf, 0)
		w.nBit = 8
	}
	if b {
		w.buf[len(w.buf)-1] |= 1 << (w.nBit - 1)
	}
	w.nBit--
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(v&(1<<uint(i)) != 0)
	}
}

// refBitReader consumes bits one at a time.
type refBitReader struct {
	buf []byte
	pos int
	bit uint8
}

func newRefBitReader(buf []byte) *refBitReader { return &refBitReader{buf: buf, bit: 7} }

func (r *refBitReader) readBit() (bool, error) {
	if r.pos >= len(r.buf) {
		return false, errOutOfBits
	}
	b := r.buf[r.pos]&(1<<r.bit) != 0
	if r.bit == 0 {
		r.pos++
		r.bit = 7
	} else {
		r.bit--
	}
	return b, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// refBlockEncoder is the XOR layout's encoder on the bit-at-a-time
// writer.
type refBlockEncoder struct {
	w         refBitWriter
	n         int
	prevTS    int64
	prevDelta int64
	prevVal   uint64
	leading   uint8
	trailing  uint8
}

func newRefBlockEncoder() *refBlockEncoder { return &refBlockEncoder{leading: 0xFF} }

func (e *refBlockEncoder) add(ts int64, v float64) {
	bitsV := math.Float64bits(v)
	switch e.n {
	case 0:
		e.w.writeBits(tagXOR, 8)
		e.w.writeBits(uint64(ts), 64)
		e.w.writeBits(bitsV, 64)
	default:
		dod := (ts - e.prevTS) - e.prevDelta
		e.writeDoD(dod)
		e.prevDelta = ts - e.prevTS
		e.writeXOR(bitsV)
	}
	e.prevTS = ts
	e.prevVal = bitsV
	e.n++
}

func (e *refBlockEncoder) writeDoD(dod int64) {
	switch {
	case dod == 0:
		e.w.writeBit(false)
	case dod >= -8191 && dod <= 8192:
		e.w.writeBits(0b10, 2)
		e.w.writeBits(uint64(dod+8191)&((1<<14)-1), 14)
	case dod >= -65535 && dod <= 65536:
		e.w.writeBits(0b110, 3)
		e.w.writeBits(uint64(dod+65535)&((1<<17)-1), 17)
	case dod >= -524287 && dod <= 524288:
		e.w.writeBits(0b1110, 4)
		e.w.writeBits(uint64(dod+524287)&((1<<20)-1), 20)
	default:
		e.w.writeBits(0b1111, 4)
		e.w.writeBits(uint64(dod), 64)
	}
}

func (e *refBlockEncoder) writeXOR(v uint64) {
	xor := v ^ e.prevVal
	if xor == 0 {
		e.w.writeBit(false)
		return
	}
	e.w.writeBit(true)
	leading := uint8(leadingZeros64(xor))
	trailing := uint8(trailingZeros64(xor))
	if leading > 31 {
		leading = 31
	}
	if e.leading != 0xFF && leading >= e.leading && trailing >= e.trailing {
		e.w.writeBit(false)
		e.w.writeBits(xor>>e.trailing, uint(64-e.leading-e.trailing))
		return
	}
	e.leading, e.trailing = leading, trailing
	e.w.writeBit(true)
	e.w.writeBits(uint64(leading), 5)
	sig := 64 - leading - trailing
	e.w.writeBits(uint64(sig-1), 6)
	e.w.writeBits(xor>>trailing, uint(sig))
}

func (e *refBlockEncoder) finish() ([]byte, int) { return e.w.buf, e.n }

func leadingZeros64(x uint64) int {
	n := 0
	for x&(1<<63) == 0 && n < 64 {
		x <<= 1
		n++
	}
	return n
}

func trailingZeros64(x uint64) int {
	if x == 0 {
		return 64
	}
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// refDecodeBlock is the original materializing decoder on the
// bit-at-a-time reader.
func refDecodeBlock(buf []byte, n int) ([]Point, error) {
	if n == 0 {
		return nil, nil
	}
	r := newRefBitReader(buf)
	out := make([]Point, 0, n)
	if tag, err := r.readBits(8); err != nil || tag != tagXOR {
		return nil, errBadPayload
	}

	tsBits, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	valBits, err := r.readBits(64)
	if err != nil {
		return nil, err
	}
	ts := int64(tsBits)
	val := valBits
	out = append(out, Point{Timestamp: ts, Value: math.Float64frombits(val)})

	var delta int64
	leading, trailing := uint8(0), uint8(0)

	readXOR := func() error {
		nonzero, err := r.readBit()
		if err != nil {
			return err
		}
		if !nonzero {
			return nil
		}
		newWindow, err := r.readBit()
		if err != nil {
			return err
		}
		if newWindow {
			l, err := r.readBits(5)
			if err != nil {
				return err
			}
			s, err := r.readBits(6)
			if err != nil {
				return err
			}
			leading = uint8(l)
			sig := uint8(s) + 1
			trailing = 64 - leading - sig
		}
		sig := 64 - leading - trailing
		x, err := r.readBits(uint(sig))
		if err != nil {
			return err
		}
		val ^= x << trailing
		return nil
	}

	readDoD := func() (int64, error) {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			return 0, nil
		}
		b, err = r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			v, err := r.readBits(14)
			if err != nil {
				return 0, err
			}
			return int64(v) - 8191, nil
		}
		b, err = r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			v, err := r.readBits(17)
			if err != nil {
				return 0, err
			}
			return int64(v) - 65535, nil
		}
		b, err = r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			v, err := r.readBits(20)
			if err != nil {
				return 0, err
			}
			return int64(v) - 524287, nil
		}
		v, err := r.readBits(64)
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}

	for i := 1; i < n; i++ {
		dod, err := readDoD()
		if err != nil {
			return nil, err
		}
		delta += dod
		ts += delta
		if err := readXOR(); err != nil {
			return nil, err
		}
		out = append(out, Point{Timestamp: ts, Value: math.Float64frombits(val)})
	}
	return out, nil
}
