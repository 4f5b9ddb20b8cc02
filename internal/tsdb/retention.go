package tsdb

// Retention: the deployments accumulate "historic data ... collected
// since January 2017" (§3); a long-running installation needs to age
// out raw points. DeleteBefore drops whole sealed blocks that end
// before the cutoff and filters head buffers — cheap, because sealed
// blocks carry their time bounds.

import (
	"slices"
	"sort"
)

// DeleteBefore removes all points with timestamps strictly before
// cutoffMS. Sealed blocks that straddle the cutoff are decoded and
// re-sealed. It returns the number of points removed.
func (db *DB) DeleteBefore(cutoffMS int64) (int, error) {
	return db.DeleteBeforeWhere(cutoffMS, nil)
}

// DeleteBeforeWhere is DeleteBefore restricted to the series whose
// metric match accepts (nil matches every series) — how the rollup
// engine applies a different retention to each tier: raw series age
// out on one schedule, each rollup.<res>.* namespace on its own.
func (db *DB) DeleteBeforeWhere(cutoffMS int64, match func(metric string) bool) (int, error) {
	removed := 0
	// Disk layer first: whole expired files are deleted, partially
	// expired files rewritten (chunk-granular — a chunk straddling the
	// cutoff survives whole until it wholly expires). Doing disk first
	// lets the in-memory pass below decide series removal against the
	// post-deletion disk state.
	if db.disk != nil {
		n, err := db.diskDeleteBefore(cutoffMS, match)
		removed += n
		if err != nil {
			return removed, err
		}
	}
	// Refs of fully-removed series: marked dead under the shard lock
	// (writers re-intern on sight, matches skip them), dropped from the
	// postings and the registry after — once for the whole pass, and
	// neither lock nested in a shard's.
	var deadRefs []*Ref
	defer func() {
		db.idx.remove(deadRefs)
		for _, ref := range deadRefs {
			db.dropRef(ref)
		}
	}()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			if match != nil && !match(s.ref.metric) {
				continue
			}
			var blocks []sealedBlock
			for _, b := range s.blocks {
				switch {
				case b.maxTS < cutoffMS:
					removed += b.n // whole block aged out
				case b.minTS >= cutoffMS:
					blocks = append(blocks, b)
				default:
					// Straddling block: decode, filter, re-seal.
					pts, err := decodeBlock(b.data, b.n)
					if err != nil {
						sh.series = slices.DeleteFunc(sh.series, (*memSeries).dead)
						sh.mu.Unlock()
						return removed, err
					}
					// Points are in timestamp order: the survivors are a suffix.
					split := sort.Search(len(pts), func(i int) bool { return pts[i].Timestamp >= cutoffMS })
					removed += split
					if nb := db.encodeSealed(pts[split:]); nb.n > 0 {
						blocks = append(blocks, nb)
					}
				}
			}
			s.blocks = blocks
			head := s.head[:0]
			for _, p := range s.head {
				if p.Timestamp >= cutoffMS {
					head = append(head, p)
				} else {
					removed++
				}
			}
			s.head = head
			if len(s.blocks) == 0 && len(s.head) == 0 &&
				(db.disk == nil || !db.disk.hasChunks(s.ref.id)) {
				s.ref.dead.Store(true)
				deadRefs = append(deadRefs, s.ref)
			}
		}
		sh.series = slices.DeleteFunc(sh.series, (*memSeries).dead)
		sh.mu.Unlock()
	}
	return removed, nil
}
