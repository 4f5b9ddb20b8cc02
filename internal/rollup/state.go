package rollup

// Open-window persistence: the engine's unsealed tail — per-series
// watermarks, per-tier sealed horizons, and the open windows' raw
// values — lives only in memory. Without persistence a restart seals
// nothing and forgets everything accumulated since the last watermark
// pass, so the first post-restart windows come out short (or, worse,
// re-aggregate points the store replays from its WAL on top of an
// empty sealedUntil and double-write derived series). With
// Config.StatePath set, the engine snapshots that state atomically
// (tmp + fsync + rename) on every background tick and on Close, and
// New reloads it, re-interning each series against the store — so the
// unsealed tail survives restarts exactly.
//
// File layout (little-endian; see docs/FORMAT.md §4):
//
//	magic "CTTRST1\n" (8)
//	tierCount u16, then per tier: resolutionMS i64
//	seriesCount u32, then per series:
//	  metric  str16        (u16 length + bytes)
//	  tagCount u16, per tag: key str16, value str16
//	  watermark i64
//	  per tier (tierCount entries):
//	    sealedUntil i64
//	    openCount u32, per window: start i64, valCount u32, vals f64...
//	crc32c u32 over everything before it
//
// A state file whose tier ladder differs from the running config is
// discarded wholesale (windows are keyed by tier index); a corrupt or
// truncated file is likewise discarded — the engine starts empty and
// the raw series, durable in the store, backfill nothing but future
// windows, which is the same behaviour as before persistence existed.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/tsdb"
)

// stateMagic heads every rollup state file.
const stateMagic = "CTTRST1\n"

var stateCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendStr16 appends a u16 length prefix and the string bytes.
func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// stateReader walks a state payload, latching the first framing error.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("rollup: truncated state at offset %d", r.off)
	}
}

func (r *stateReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *stateReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *stateReader) i64() int64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *stateReader) f64() float64 {
	return math.Float64frombits(uint64(r.i64()))
}

func (r *stateReader) str16() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// SaveState atomically writes the engine's open-window state to
// cfg.StatePath. Safe to call concurrently with ingest: each shard is
// serialized under its own lock, so the snapshot is per-series
// consistent (the only granularity sealing itself has).
func (e *Engine) SaveState() error {
	path := e.cfg.StatePath
	if path == "" {
		return fmt.Errorf("rollup: SaveState without Config.StatePath")
	}
	buf := make([]byte, 0, 4096)
	buf = append(buf, stateMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.tiers)))
	for i := range e.tiers {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.tiers[i].resMS))
	}
	countAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // seriesCount, patched below
	nSeries := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, st := range sh.series {
			if st.skip {
				continue // skip-only states carry nothing to restore
			}
			nSeries++
			buf = appendStr16(buf, st.metric)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(st.tags)))
			for k, v := range st.tags {
				buf = appendStr16(buf, k)
				buf = appendStr16(buf, v)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(st.watermark))
			for ti := range st.tiers {
				ts := &st.tiers[ti]
				buf = binary.LittleEndian.AppendUint64(buf, uint64(ts.sealedUntil))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts.open)))
				for w, win := range ts.open {
					buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(win.vals)))
					for _, v := range win.vals {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
					}
				}
			}
		}
		sh.mu.Unlock()
	}
	binary.LittleEndian.PutUint32(buf[countAt:], uint32(nSeries))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, stateCRCTable))

	tmp := path + ".tmp"
	f, err := e.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		e.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		e.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		e.fs.Remove(tmp)
		return err
	}
	if err := e.fs.Rename(tmp, path); err != nil {
		e.fs.Remove(tmp)
		return err
	}
	// Rename durability: fsync the directory so the new name survives
	// a crash. Best-effort — some filesystems reject directory fsync.
	_ = e.fs.SyncDir(filepath.Dir(path))
	return nil
}

// loadState restores the open-window state saved by SaveState,
// re-interning every series against the store. Called from New before
// the engine is subscribed to writes. Returns the number of series
// restored; a missing file restores zero with no error, and a corrupt
// or tier-mismatched file is discarded (zero restored, error
// describing why — callers may log it, the engine still starts).
func (e *Engine) loadState() (int, error) {
	raw, err := e.fs.ReadFile(e.cfg.StatePath)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	if len(raw) < len(stateMagic)+4 || string(raw[:len(stateMagic)]) != stateMagic {
		return 0, fmt.Errorf("rollup: %s: bad state magic", e.cfg.StatePath)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, stateCRCTable) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("rollup: %s: state CRC mismatch", e.cfg.StatePath)
	}
	r := &stateReader{b: body, off: len(stateMagic)}
	nTiers := int(r.u16())
	if nTiers != len(e.tiers) {
		return 0, fmt.Errorf("rollup: %s: state has %d tiers, config has %d — discarding", e.cfg.StatePath, nTiers, len(e.tiers))
	}
	for i := 0; i < nTiers; i++ {
		if res := r.i64(); r.err == nil && res != e.tiers[i].resMS {
			return 0, fmt.Errorf("rollup: %s: tier %d resolution %dms != configured %dms — discarding", e.cfg.StatePath, i, res, e.tiers[i].resMS)
		}
	}
	nSeries := int(r.u32())
	restored := 0
	for si := 0; si < nSeries && r.err == nil; si++ {
		metric := r.str16()
		nTags := int(r.u16())
		var tags map[string]string
		if nTags > 0 {
			tags = make(map[string]string, nTags)
		}
		for ti := 0; ti < nTags; ti++ {
			k := r.str16()
			tags[k] = r.str16()
		}
		watermark := r.i64()
		tierStates := make([]tierState, nTiers)
		for ti := 0; ti < nTiers; ti++ {
			tierStates[ti].sealedUntil = r.i64()
			nOpen := int(r.u32())
			tierStates[ti].open = make(map[int64]*window, nOpen)
			for wi := 0; wi < nOpen && r.err == nil; wi++ {
				start := r.i64()
				nVals := int(r.u32())
				if r.err != nil || nVals < 0 || r.off+8*nVals > len(r.b) {
					r.fail()
					break
				}
				win := &window{vals: make([]float64, 0, nVals)}
				for vi := 0; vi < nVals; vi++ {
					win.vals = append(win.vals, r.f64())
				}
				tierStates[ti].open[start] = win
			}
		}
		if r.err != nil {
			break
		}
		ref, err := e.db.Intern(metric, tags)
		if err != nil {
			continue // series no longer internable; drop its tail
		}
		st := e.newSeriesState(ref)
		if st.skip {
			continue // config changed underneath: now a reserved series
		}
		st.watermark = watermark
		for ti := range tierStates {
			// The file keeps no record of late drops: count every window
			// sealed before the restart as possibly short of one.
			tierStates[ti].readUntil = tierStates[ti].sealedUntil
			tierStates[ti].lateUntil = tierStates[ti].sealedUntil
		}
		st.tiers = tierStates
		sh := &e.shards[uint64(ref.ID())%engineShards]
		sh.mu.Lock()
		sh.series[ref.ID()] = st
		sh.mu.Unlock()
		restored++
	}
	if r.err != nil {
		// Mid-file corruption: throw away everything — a partial
		// restore could resurrect some series' sealed horizons but not
		// others', and the all-or-nothing rule is what FORMAT.md
		// documents.
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.Lock()
			sh.series = make(map[tsdb.SeriesID]*seriesState)
			sh.mu.Unlock()
		}
		return 0, fmt.Errorf("%w — discarding state", r.err)
	}
	return restored, nil
}
