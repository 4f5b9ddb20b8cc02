package tsdb

// Block file format ("CTTBLK2"): the immutable on-disk unit the
// background flusher seals cold in-memory blocks into, and the
// compactor merges. One file holds the chunks of one time partition;
// chunks are gorilla.go payloads (identical bits to the in-memory sealed
// blocks) addressed by series identity through an index section at
// the tail, so a reader seeks the footer, loads the index, and preads
// individual chunk payloads on demand. Every chunk payload carries a
// CRC32C, the index section carries one, and the footer carries one:
// a torn or bit-flipped file is detected before any of its data is
// served. docs/FORMAT.md is the normative byte-level spec of this
// layout; TestBlockFileGoldenSpec decodes a golden file against the
// spec's field offsets to keep the two in lockstep.
//
// Layout (all integers little-endian):
//
//	header(16)  = magic "CTTBLK2\n" | reserved(8, zero)
//	chunk*      = seriesIdx(4) | minTS(8) | maxTS(8) | count(4) |
//	              dataLen(4) | data | crc32c(data)(4)
//	index       = series table | chunk table
//	footer(48)  = indexOff(8) | minTS(8) | maxTS(8) | chunkCount(4) |
//	              seriesCount(4) | indexCRC(4) | footerCRC(4) |
//	              tail magic "CTTBLKE\n"
//
// The chunk-record header fields duplicate the (CRC-protected) chunk
// table so a sequential scan can recover a file with a destroyed
// index; the index is the authoritative copy.
//
// "CTTBLK1" is the same layout with every payload untagged. Such
// files load and compact like any other; the magic moved to 2 with
// the payload tag so that a build without the tag quarantines a file
// it would otherwise misread.
import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/tsdb/fsio"
)

const (
	blockMagic     = "CTTBLK2\n"
	blockMagicV1   = "CTTBLK1\n"
	blockTailMagic = "CTTBLKE\n"

	blockHeaderSize = 16
	// chunkHeaderSize covers seriesIdx..dataLen; the payload follows,
	// then the 4-byte payload CRC.
	chunkHeaderSize = 28
	blockFooterSize = 48
	// chunkTableEntrySize is one chunk table row in the index section.
	chunkTableEntrySize = 40

	// maxBlockIndexSize bounds the index allocation when parsing a
	// footer, so a corrupt indexOff cannot OOM the process.
	maxBlockIndexSize = 64 << 20
)

// castagnoli is the CRC32C polynomial table; the WAL uses IEEE, block
// files use Castagnoli (hardware-accelerated on modern CPUs, and it
// keeps the two formats' checksums from being confused for each other).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// chunkPos is the writer's report of where one chunk record landed.
type chunkPos struct {
	off int64 // offset of the chunk record (its header) in the file
	crc uint32
}

// writeBlockChunks renders a complete block file for the given chunks
// (already sorted by the caller) into path, fsyncs it, and returns the
// open read-write handle, total size, and per-chunk positions aligned
// with the input slice. Payloads are pulled through diskChunk.payload,
// so inputs may be pending (in-memory) or file-backed (compaction).
// On error the partial file is removed.
func writeBlockChunks(fs fsio.FS, path string, chunks []*diskChunk) (f fsio.File, size int64, pos []chunkPos, err error) {
	f, err = fs.Create(path)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("tsdb: block create: %w", err)
	}
	fail := func(err error) (fsio.File, int64, []chunkPos, error) {
		f.Close()
		fs.Remove(path)
		return nil, 0, nil, err
	}

	// Header.
	var buf []byte
	buf = append(buf, blockMagic...)
	buf = append(buf, make([]byte, blockHeaderSize-len(blockMagic))...)

	// Chunk section. Series table indices assigned by first use.
	pos = make([]chunkPos, len(chunks))
	seriesIdx := make(map[*Ref]uint32, len(chunks))
	var seriesOrder []*Ref
	var fileMin, fileMax int64
	var payloadBuf []byte
	for i, c := range chunks {
		si, ok := seriesIdx[c.ref]
		if !ok {
			si = uint32(len(seriesOrder))
			seriesIdx[c.ref] = si
			seriesOrder = append(seriesOrder, c.ref)
		}
		data, perr := c.payload(&payloadBuf)
		if perr != nil {
			return fail(perr)
		}
		if i == 0 || c.minTS < fileMin {
			fileMin = c.minTS
		}
		if i == 0 || c.maxTS > fileMax {
			fileMax = c.maxTS
		}
		pos[i] = chunkPos{off: int64(len(buf)), crc: crc32c(data)}
		buf = binary.LittleEndian.AppendUint32(buf, si)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.minTS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.maxTS))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.n))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, data...)
		buf = binary.LittleEndian.AppendUint32(buf, pos[i].crc)
	}

	// Index section: series table then chunk table.
	indexOff := int64(len(buf))
	idxStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seriesOrder)))
	for _, ref := range seriesOrder {
		buf = appendWALString(buf, ref.metric)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ref.pairs)))
		for _, kv := range ref.pairs {
			buf = appendWALString(buf, kv.k)
			buf = appendWALString(buf, kv.v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(chunks)))
	for i, c := range chunks {
		buf = binary.LittleEndian.AppendUint32(buf, seriesIdx[c.ref])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.minTS))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.maxTS))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.n))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pos[i].off))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.dlen))
		buf = binary.LittleEndian.AppendUint32(buf, pos[i].crc)
	}
	indexCRC := crc32c(buf[idxStart:])

	// Footer.
	footStart := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fileMin))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(fileMax))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(chunks)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seriesOrder)))
	buf = binary.LittleEndian.AppendUint32(buf, indexCRC)
	buf = binary.LittleEndian.AppendUint32(buf, crc32c(buf[footStart:]))
	buf = append(buf, blockTailMagic...)

	if _, err := f.Write(buf); err != nil {
		return fail(fmt.Errorf("tsdb: block write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("tsdb: block fsync: %w", err))
	}
	return f, int64(len(buf)), pos, nil
}

// parsedChunk is one chunk table row decoded from a file's index.
type parsedChunk struct {
	seriesIdx    uint32
	minTS, maxTS int64
	n            int
	off          int64
	dlen         uint32
	crc          uint32
}

// parsedSeries is one series table row: the identity a chunk is
// re-interned under at load (SeriesIDs are process-lifetime, so the
// file stores the full key, never the ID).
type parsedSeries struct {
	metric string
	tags   map[string]string
}

// parsedBlock is the decoded metadata of one block file.
type parsedBlock struct {
	size         int64
	minTS, maxTS int64
	series       []parsedSeries
	chunks       []parsedChunk
}

// verifyChunkPayloads reads every chunk payload of a parsed file and
// checks its CRC32C — the startup integrity sweep that sends a
// bit-flipped file to quarantine before any query can touch it.
// Payloads are also re-verified on every query-time pread (bit rot
// after open).
func verifyChunkPayloads(f fsio.File, pb *parsedBlock) error {
	var buf []byte
	for i := range pb.chunks {
		c := &pb.chunks[i]
		need := int(c.dlen)
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		b := buf[:need]
		if _, err := f.ReadAt(b, c.off+chunkHeaderSize); err != nil {
			return fmt.Errorf("tsdb: block chunk read: %w", err)
		}
		if crc32c(b) != c.crc {
			return fmt.Errorf("tsdb: block chunk %d crc mismatch", i)
		}
	}
	return nil
}

// parseBlockFile validates a block file's framing (magics, footer CRC,
// index CRC) and decodes its index. It does not read chunk payloads —
// openDiskStore runs verifyChunkPayloads separately, and query-time
// preads re-verify. Any framing failure returns an error; the caller
// quarantines the file.
func parseBlockFile(f fsio.File) (*parsedBlock, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < blockHeaderSize+blockFooterSize {
		return nil, fmt.Errorf("tsdb: block file truncated (%d bytes)", size)
	}
	var head [blockHeaderSize]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if m := string(head[:len(blockMagic)]); m != blockMagic && m != blockMagicV1 {
		return nil, fmt.Errorf("tsdb: block file bad magic")
	}
	var foot [blockFooterSize]byte
	if _, err := f.ReadAt(foot[:], size-blockFooterSize); err != nil {
		return nil, err
	}
	if string(foot[40:48]) != blockTailMagic {
		return nil, fmt.Errorf("tsdb: block file bad tail magic")
	}
	if crc32c(foot[0:36]) != binary.LittleEndian.Uint32(foot[36:40]) {
		return nil, fmt.Errorf("tsdb: block file footer crc mismatch")
	}
	pb := &parsedBlock{
		size:  size,
		minTS: int64(binary.LittleEndian.Uint64(foot[8:16])),
		maxTS: int64(binary.LittleEndian.Uint64(foot[16:24])),
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:8]))
	chunkCount := binary.LittleEndian.Uint32(foot[24:28])
	seriesCount := binary.LittleEndian.Uint32(foot[28:32])
	indexCRC := binary.LittleEndian.Uint32(foot[32:36])
	indexLen := size - blockFooterSize - indexOff
	if indexOff < blockHeaderSize || indexLen < 8 || indexLen > maxBlockIndexSize {
		return nil, fmt.Errorf("tsdb: block file index bounds corrupt")
	}
	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, indexOff); err != nil {
		return nil, err
	}
	if crc32c(idx) != indexCRC {
		return nil, fmt.Errorf("tsdb: block file index crc mismatch")
	}

	// Series table.
	off := 0
	if binary.LittleEndian.Uint32(idx[off:]) != seriesCount {
		return nil, fmt.Errorf("tsdb: block file series count mismatch")
	}
	off += 4
	pb.series = make([]parsedSeries, seriesCount)
	for i := range pb.series {
		metric, noff, err := readWALString(idx, off)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block file series table: %w", err)
		}
		off = noff
		if off+2 > len(idx) {
			return nil, fmt.Errorf("tsdb: block file series table truncated")
		}
		nTags := int(binary.LittleEndian.Uint16(idx[off:]))
		off += 2
		tags := make(map[string]string, nTags)
		for t := 0; t < nTags; t++ {
			var k, v string
			if k, off, err = readWALString(idx, off); err != nil {
				return nil, fmt.Errorf("tsdb: block file series table: %w", err)
			}
			if v, off, err = readWALString(idx, off); err != nil {
				return nil, fmt.Errorf("tsdb: block file series table: %w", err)
			}
			tags[k] = v
		}
		pb.series[i] = parsedSeries{metric: metric, tags: tags}
	}

	// Chunk table.
	if off+4 > len(idx) || binary.LittleEndian.Uint32(idx[off:]) != chunkCount {
		return nil, fmt.Errorf("tsdb: block file chunk count mismatch")
	}
	off += 4
	if int64(off)+int64(chunkCount)*chunkTableEntrySize != indexLen {
		return nil, fmt.Errorf("tsdb: block file chunk table size mismatch")
	}
	pb.chunks = make([]parsedChunk, chunkCount)
	for i := range pb.chunks {
		row := idx[off+i*chunkTableEntrySize:]
		c := parsedChunk{
			seriesIdx: binary.LittleEndian.Uint32(row[0:4]),
			minTS:     int64(binary.LittleEndian.Uint64(row[4:12])),
			maxTS:     int64(binary.LittleEndian.Uint64(row[12:20])),
			n:         int(binary.LittleEndian.Uint32(row[20:24])),
			off:       int64(binary.LittleEndian.Uint64(row[24:32])),
			dlen:      binary.LittleEndian.Uint32(row[32:36]),
			crc:       binary.LittleEndian.Uint32(row[36:40]),
		}
		if c.seriesIdx >= seriesCount || c.n <= 0 ||
			c.off < blockHeaderSize || c.off+chunkHeaderSize+int64(c.dlen)+4 > indexOff {
			return nil, fmt.Errorf("tsdb: block file chunk table entry corrupt")
		}
		pb.chunks[i] = c
	}
	return pb, nil
}
