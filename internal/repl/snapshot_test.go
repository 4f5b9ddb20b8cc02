package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/tsdb/fsio"
)

// oldPrimaryDial answers one bootstrap the way primaries did while they
// shipped their rollup state: a snapshot welcome, a kind-2 file named
// rollup.state, then pdb's block files, WAL and snapend.
func oldPrimaryDial(t *testing.T, pdb *tsdb.DB, state []byte) DialFunc {
	srv := NewServer(ServerConfig{DB: pdb})
	return func(string) (net.Conn, error) {
		client, conn := net.Pipe()
		go func() {
			defer conn.Close()
			if _, _, err := readFrame(bufio.NewReader(conn)); err != nil { // hello
				t.Error(err)
				return
			}
			hdr := append([]byte{2}, binary.LittleEndian.AppendUint64(nil, uint64(len(state)))...)
			buf, err := writeFrame(conn, nil, time.Second, fWelcome, helloWelcome(1, modeSnapshot))
			if err == nil {
				buf, err = writeFrame(conn, buf, time.Second, fSnapFile, appendStr(hdr, "rollup.state"))
			}
			if err == nil {
				buf, err = writeFrame(conn, buf, time.Second, fSnapData, state)
			}
			if err != nil {
				return // the follower hung up on the kind-2 file
			}
			if rd, _, err := srv.sendSnapshot(conn, buf); err == nil {
				rd.Close()
			}
		}()
		return client, nil
	}
}

// TestSnapshotRefusesRollupState: a follower refuses the snapshot of a
// primary that still ships its kind-2 rollup state file, naming the
// compatibility rules, and writes nothing for it.
func TestSnapshotRefusesRollupState(t *testing.T) {
	pdb := openStore(t, t.TempDir())
	defer pdb.Close()
	for i := 0; i < 300; i++ {
		put(t, pdb, "m.cpu", "a", i)
	}
	if _, err := pdb.FlushBlocks(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, err := Bootstrap(BootstrapConfig{Dir: dir, Dial: oldPrimaryDial(t, pdb, []byte("CTTRST1\n state bytes"))})
	if err == nil || !strings.Contains(err.Error(), "FORMAT.md §4") {
		t.Fatalf("bootstrap from a rollup-state primary: err %v, want a refusal naming FORMAT.md §4", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "blocks" {
			t.Fatalf("refused snapshot left %s in the data dir", e.Name())
		}
	}
	if blocks, err := os.ReadDir(filepath.Join(dir, "blocks")); err != nil || len(blocks) != 0 {
		t.Fatalf("refused snapshot wrote block files: %v (err %v)", blocks, err)
	}
}

// nopConn is the connection receiveSnapshot sets read deadlines on;
// the frames come from the bufio.Reader it is handed.
type nopConn struct{ net.Conn }

func (nopConn) SetReadDeadline(time.Time) error { return nil }

// recordFS is an in-memory fsio.FS for the calls receiveSnapshot
// makes, logging every path it creates and every byte written.
type recordFS struct {
	fsio.FS
	created []string
	written int
}

func (r *recordFS) MkdirAll(path string, _ os.FileMode) error {
	r.created = append(r.created, path)
	return nil
}

func (r *recordFS) Create(name string) (fsio.File, error) {
	r.created = append(r.created, name)
	return &recordFile{fs: r}, nil
}

func (r *recordFS) SyncDir(string) error { return nil }

type recordFile struct {
	fsio.File
	fs *recordFS
}

func (f *recordFile) Write(p []byte) (int, error) {
	f.fs.written += len(p)
	return len(p), nil
}

func (f *recordFile) Sync() error  { return nil }
func (f *recordFile) Close() error { return nil }

// snapStream frames fuzz input for the receiver: a run of records
// typ(1) | n(2) | payload(n), each sent as a well-formed frame, and
// whatever is left when a record overruns the input sent as raw bytes.
// It also returns what the receiver may write at most: one file per
// snapfile of kind 0 or 1, and the snapdata bytes that follow one.
func snapStream(data []byte) (stream []byte, files, maxBytes int) {
	writable := false
	for len(data) >= 3 {
		typ, n := data[0], int(binary.LittleEndian.Uint16(data[1:]))
		if 3+n > len(data) {
			break
		}
		payload := data[3 : 3+n]
		data = data[3+n:]
		stream = binary.LittleEndian.AppendUint32(stream, uint32(1+n+4))
		frame := len(stream)
		stream = append(append(stream, typ), payload...)
		stream = binary.LittleEndian.AppendUint32(stream, crc32.ChecksumIEEE(stream[frame:]))
		switch typ {
		case fSnapFile:
			writable = n > 0 && (payload[0] == snapKindWAL || payload[0] == snapKindBlock)
			if writable {
				files++
			}
		case fSnapData:
			if writable {
				maxBytes += n
			}
		}
	}
	return append(stream, data...), files, maxBytes
}

// snapRecord encodes one snapStream record.
func snapRecord(typ byte, payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint16([]byte{typ}, uint16(len(payload))), payload...)
}

func snapFileRecord(kind byte, size int, name string) []byte {
	hdr := append([]byte{kind}, binary.LittleEndian.AppendUint64(nil, uint64(size))...)
	return snapRecord(fSnapFile, appendStr(hdr, name))
}

// FuzzReceiveSnapshot: any frame stream into the follower's snapshot
// receiver ends in an error or a position, never a panic; it creates
// nothing but Dir/blocks, Dir/tsdb.wal and files directly inside
// Dir/blocks; and a file of an unknown kind (2 was the rollup state
// older primaries shipped) writes nothing.
func FuzzReceiveSnapshot(f *testing.F) {
	end := snapRecord(fSnapEnd, make([]byte, 16))
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	f.Add(cat(snapFileRecord(snapKindBlock, 3, "b-1.blk"), snapRecord(fSnapData, []byte("abc")),
		snapFileRecord(2, 4, "rollup.state"), snapRecord(fSnapData, []byte("CTTR")),
		snapFileRecord(snapKindWAL, 2, walName), snapRecord(fSnapData, []byte("wl")), end))
	f.Add(cat(snapFileRecord(2, 2, walName), snapRecord(fSnapData, []byte("xy")), end))
	f.Add(cat(snapFileRecord(snapKindBlock, 1, "../evil"), snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(snapKindBlock, 1, "a/b"), end))
	f.Add(cat(snapFileRecord(snapKindWAL, 5, walName), snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(2, 1, "s"), snapRecord(fSnapData, []byte("xy")), end))
	f.Add(cat(snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(3, 0, "x"), end))
	f.Add(cat(snapRecord(fSnapFile, []byte{0}), snapRecord(fSnapEnd, nil)))
	f.Add(cat(snapRecord(fError, append([]byte{codeProto}, appendStr(nil, "no")...))))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, files, maxBytes := snapStream(data)
		dir := filepath.Join("data", "node")
		rfs := &recordFS{}
		cfg := BootstrapConfig{Dir: dir, FS: rfs, Timeout: time.Second}
		receiveSnapshot(cfg, nopConn{}, bufio.NewReader(bytes.NewReader(stream))) // an error or a position; a panic fails
		blocks := filepath.Join(dir, "blocks")
		creates := 0
		for _, p := range rfs.created {
			switch {
			case p == blocks:
			case p == filepath.Join(dir, walName), filepath.Dir(p) == blocks:
				creates++
			default:
				t.Fatalf("created %q outside %s and %s", p, dir, blocks)
			}
		}
		if creates > files || rfs.written > maxBytes {
			t.Fatalf("created %d files and wrote %d bytes; the stream's kind-0/1 files allow %d and %d",
				creates, rfs.written, files, maxBytes)
		}
	})
}
