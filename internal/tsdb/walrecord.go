package tsdb

// Reading the WAL. Every reader of tsdb.wal records — replay, the
// resume-state scan a restarting replica makes, the dictionary prefix
// a replication session sends, and a replica decoding the live stream
// — frames records with frameWALRecord (scanWAL, over a file) and
// decodes series and points records with a WALDecoder.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// walHeaderLen is a record's crc32(4) | len(4) prefix. maxWALRecord
// bounds its payload: nothing the store writes comes near it (a points
// record is at most 160 KiB), so a longer length is corruption.
const walHeaderLen, maxWALRecord = 8, 16 << 20

// ErrWALCorrupt reports a WAL record that fails its checks: a length
// of 0 or past the bound, a CRC mismatch, or a payload that does not
// decode.
var ErrWALCorrupt = errors.New("tsdb: wal record corrupt")

// frameWALRecord frames the record at the head of b. need is the
// record's whole size once its header is in b, and the header's size
// before; when len(b) >= need and err is nil, b[:need] is the record
// with its CRC checked.
func frameWALRecord(b []byte) (need int, err error) {
	if len(b) < walHeaderLen {
		return walHeaderLen, nil
	}
	n := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxWALRecord {
		return 0, fmt.Errorf("%w: implausible length %d", ErrWALCorrupt, n)
	}
	need = walHeaderLen + int(n)
	if len(b) < need {
		return need, nil
	}
	if crc32.ChecksumIEEE(b[walHeaderLen:need]) != binary.LittleEndian.Uint32(b) {
		return 0, fmt.Errorf("%w: crc mismatch", ErrWALCorrupt)
	}
	return need, nil
}

// scanWAL frames the log body r holds from file offset off, calling
// visit with each record's offset and bytes, header included (valid
// during the call), until r ends, a record does not frame or visit
// returns false. end is the offset past the last record visit took.
// err is nil at a clean end or a stop by visit, io.ErrUnexpectedEOF
// when r ends inside a record, and wraps ErrWALCorrupt for a record
// that fails its checks.
func scanWAL(r io.Reader, off int64, visit func(off int64, rec []byte) bool) (end int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var rec []byte
	for {
		rec = rec[:0]
		var need int
		need, err = frameWALRecord(rec)
		for err == nil && len(rec) < need {
			have := len(rec)
			rec = slices.Grow(rec, need-have)[:need]
			if _, err = io.ReadFull(br, rec[have:]); err == nil {
				need, err = frameWALRecord(rec)
			} else if err == io.EOF && have == 0 {
				return off, nil
			} else if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
		}
		if err != nil || !visit(off, rec) {
			return off, err
		}
		off += int64(need)
	}
}

// WALDecoder turns series and points records into interned series and
// points, holding the fileID dictionary of one log file. Replay hands
// it the records it frames; a replica hands it the primary's log bytes
// as they stream in (Feed), cut at any byte.
type WALDecoder struct {
	db    *DB
	refs  map[uint32]*Ref
	part  []byte // the bytes of a record not yet seen whole
	batch []RefPoint
}

// NewWALDecoder returns a decoder that interns into db, with an empty
// dictionary.
func (db *DB) NewWALDecoder() *WALDecoder {
	return &WALDecoder{db: db, refs: make(map[uint32]*Ref)}
}

// Reset empties the dictionary and drops pending bytes: the next byte
// fed starts a record of a new log file.
func (d *WALDecoder) Reset() {
	clear(d.refs)
	d.part = d.part[:0]
}

// Pending reports how many bytes Feed holds of a record it has not
// seen whole.
func (d *WALDecoder) Pending() int { return len(d.part) }

// Feed decodes every complete record in the pending bytes plus data:
// series records are interned, points records yield their points, and
// flush, replpos and gen records (the sending log's bookkeeping) are
// passed over. It returns the bytes those records span from the start
// of the pending bytes, and their points, valid until the next call.
// A record that fails its checks, a block2 record (log rewrites write
// them, streams never carry them) or an unknown type stops it with an
// error wrapping ErrWALCorrupt; consumed and pts then cover the
// records before it.
func (d *WALDecoder) Feed(data []byte) (consumed int64, pts []RefPoint, err error) {
	d.part = append(d.part, data...)
	d.batch = d.batch[:0]
	p := d.part
	for {
		var need int
		if need, err = frameWALRecord(p); err != nil || len(p) < need {
			break
		}
		switch typ := p[walHeaderLen]; typ {
		case walRecSeries:
			err = d.series(p[walHeaderLen+1 : need])
		case walRecPoints:
			err = d.points(p[walHeaderLen+1:need], math.MinInt64)
		case walRecFlush, walRecReplPos, walRecGen:
		case walRecBlock2:
			err = fmt.Errorf("%w: block2 record in a stream", ErrWALCorrupt)
		default:
			err = fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, typ)
		}
		if err != nil {
			break
		}
		p = p[need:]
		consumed += int64(need)
	}
	d.part = append(d.part[:0], p...)
	return consumed, d.batch, err
}

// series interns a series record (the payload past its type byte)
// under its fileID.
func (d *WALDecoder) series(p []byte) error {
	if len(p) < 4 {
		return ErrWALCorrupt
	}
	metric, kvs, _, err := readSeriesEntry(p, 4)
	if err != nil {
		return err
	}
	ref, err := d.db.InternBytes(metric, kvs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWALCorrupt, err)
	}
	d.refs[binary.LittleEndian.Uint32(p)] = ref
	return nil
}

// points appends the points of a points record (the payload past its
// type byte) at or past horizon to d.batch. The record is checked
// whole — its length, and a series for every fileID — before any point
// is taken.
func (d *WALDecoder) points(p []byte, horizon int64) error {
	if len(p) < 2 {
		return ErrWALCorrupt
	}
	count := int(binary.LittleEndian.Uint16(p))
	if len(p) != 2+count*20 {
		return ErrWALCorrupt
	}
	for i := 0; i < count; i++ {
		if fid := binary.LittleEndian.Uint32(p[2+i*20:]); d.refs[fid] == nil {
			return fmt.Errorf("%w: points for unannounced series %d", ErrWALCorrupt, fid)
		}
	}
	for i := 0; i < count; i++ {
		rec := p[2+i*20:]
		ts := int64(binary.LittleEndian.Uint64(rec[4:]))
		if ts < horizon {
			continue
		}
		d.batch = append(d.batch, RefPoint{
			Ref: d.refs[binary.LittleEndian.Uint32(rec)],
			Point: Point{
				Timestamp: ts,
				Value:     math.Float64frombits(binary.LittleEndian.Uint64(rec[12:])),
			},
		})
	}
	return nil
}
