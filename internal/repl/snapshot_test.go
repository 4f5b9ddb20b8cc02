package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/tsdb/fsio"
)

// oldPrimaryDial answers one bootstrap the way older primaries did: a
// snapshot welcome stamped ver and, when state is not nil, a kind-2
// file named rollup.state (what primaries shipped while they kept
// their rollup state), then pdb's block files, WAL and snapend.
func oldPrimaryDial(t *testing.T, pdb *tsdb.DB, ver byte, state []byte) DialFunc {
	srv := NewServer(ServerConfig{DB: pdb})
	return func(string) (net.Conn, error) {
		client, conn := net.Pipe()
		go func() {
			defer conn.Close()
			if _, _, err := readFrame(bufio.NewReader(conn)); err != nil { // hello
				t.Error(err)
				return
			}
			welcome := helloWelcome(1, modeSnapshot)
			welcome[0] = ver
			buf, err := writeFrame(conn, nil, time.Second, fWelcome, welcome)
			if err == nil && state != nil {
				hdr := append([]byte{2}, binary.LittleEndian.AppendUint64(nil, uint64(len(state)))...)
				buf, err = writeFrame(conn, buf, time.Second, fSnapFile, appendStr(hdr, "rollup.state"))
				if err == nil {
					buf, err = writeFrame(conn, buf, time.Second, fSnapData, state)
				}
			}
			if err != nil {
				return // the follower hung up on the refused snapshot
			}
			if rd, _, err := srv.sendSnapshot(conn, buf); err == nil {
				rd.Close()
			}
		}()
		return client, nil
	}
}

// storeWithBlocks opens a store in dir and leaves it holding block
// files and a WAL.
func storeWithBlocks(t *testing.T, dir string) *tsdb.DB {
	t.Helper()
	db := openStore(t, dir)
	for i := 0; i < 300; i++ {
		put(t, db, "m.cpu", "a", i)
	}
	if _, err := db.FlushBlocks(); err != nil {
		t.Fatal(err)
	}
	put(t, db, "m.cpu", "a", 300)
	return db
}

// localStore leaves a standalone node's store in a fresh directory —
// block files and a WAL with no replication position, which a
// bootstrap must re-seed — and returns the directory.
func localStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db := storeWithBlocks(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, tsdb.BlockDirName)); err != nil || len(ents) == 0 {
		t.Fatalf("local store holds no block files: %v (err %v)", ents, err)
	}
	return dir
}

// dirContents maps every file under dir to its bytes and every
// directory to "dir".
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == dir {
			return err
		}
		if d.IsDir() {
			out[p] = "dir"
			return nil
		}
		b, err := os.ReadFile(p)
		out[p] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertBootstrapRefused runs a bootstrap of dir through dial, wants it
// to fail with an error containing want, and the directory unchanged.
func assertBootstrapRefused(t *testing.T, dir string, dial DialFunc, want string) {
	t.Helper()
	before := dirContents(t, dir)
	_, err := Bootstrap(BootstrapConfig{Dir: dir, Dial: dial, Timeout: 2 * time.Second})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("bootstrap: err %v, want a refusal naming %q", err, want)
	}
	if after := dirContents(t, dir); !maps.Equal(before, after) {
		t.Fatalf("refused bootstrap changed the data dir:\nbefore %q\nafter  %q", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
	}
}

// TestSnapshotRefusesRollupState: a follower refuses the snapshot of a
// primary that still ships its kind-2 rollup state file, naming the
// compatibility rules, and its data directory — empty, or holding a
// store — is left byte for byte as it was. So is one whose snapshot
// transfer the link cuts.
func TestSnapshotRefusesRollupState(t *testing.T) {
	pdb := storeWithBlocks(t, t.TempDir())
	defer pdb.Close()
	dial := oldPrimaryDial(t, pdb, protoVersion, []byte("CTTRST1\n state bytes"))
	assertBootstrapRefused(t, t.TempDir(), dial, "FORMAT.md §4")
	dir := localStore(t)
	assertBootstrapRefused(t, dir, dial, "FORMAT.md §4")

	// A whole transfer reads total bytes off the link; cut it halfway.
	var total atomic.Int64
	count := func(string) (net.Conn, error) {
		conn, err := oldPrimaryDial(t, pdb, protoVersion, nil)("")
		return &cutConn{Conn: conn, read: &total, limit: -1}, err
	}
	boot, err := Bootstrap(BootstrapConfig{Dir: t.TempDir(), Dial: count})
	if err != nil || !boot.Snapshot {
		t.Fatalf("snapshot bootstrap: %+v, %v", boot, err)
	}
	boot.sess.conn.Close()
	cut := func(string) (net.Conn, error) {
		conn, err := oldPrimaryDial(t, pdb, protoVersion, nil)("")
		return &cutConn{Conn: conn, read: new(atomic.Int64), limit: total.Load() / 2}, err
	}
	assertBootstrapRefused(t, dir, cut, "link cut")
}

// TestSnapshotRefusesVersion1: a version-1 primary's snapshot holds
// CTTBLK1 block files, which the store refuses at open. A follower
// refuses it at the welcome, naming the compatibility rules, before it
// touches its data directory; a version-1 resume still goes ahead, as
// the live stream is the same in both versions.
func TestSnapshotRefusesVersion1(t *testing.T) {
	pdb := storeWithBlocks(t, t.TempDir())
	defer pdb.Close()
	assertBootstrapRefused(t, localStore(t), oldPrimaryDial(t, pdb, 1, nil), "FORMAT.md §4")

	for _, c := range []struct {
		mode       byte
		resumeOnly bool
		err        error
	}{
		{modeResume, false, nil},
		{modeSnapshot, false, errOldSnapshot},
		{modeSnapshot, true, nil}, // a running follower turns any snapshot down
	} {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			if _, _, err := readFrame(bufio.NewReader(server)); err == nil {
				welcome := helloWelcome(1, c.mode)
				welcome[0] = 1
				writeFrame(server, nil, time.Second, fWelcome, welcome)
			}
		}()
		_, mode, err := handshake(client, bufio.NewReader(client), time.Second, "", tsdb.ReplPos{Epoch: 1}, true, c.resumeOnly)
		client.Close()
		if err != c.err || (err == nil && mode != c.mode) {
			t.Fatalf("v1 welcome mode %d, resumeOnly %v: mode %d, err %v; want err %v", c.mode, c.resumeOnly, mode, err, c.err)
		}
	}
}

// cutConn counts the bytes read off a connection into read and, past
// limit (when not negative), cuts the link.
type cutConn struct {
	net.Conn
	read  *atomic.Int64
	limit int64
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.limit >= 0 {
		left := c.limit - c.read.Load()
		if left <= 0 {
			c.Conn.Close()
			return 0, errors.New("link cut")
		}
		p = p[:min(int64(len(p)), left)]
	}
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
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
// nothing but the staging directory's blocks/ and tsdb.wal and files
// directly inside its blocks/; and a file of an unknown kind (2 was
// the rollup state older primaries shipped) writes nothing.
func FuzzReceiveSnapshot(f *testing.F) {
	end := snapRecord(fSnapEnd, make([]byte, 16))
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	f.Add(cat(snapFileRecord(snapKindBlock, 3, "b-1.blk"), snapRecord(fSnapData, []byte("abc")),
		snapFileRecord(2, 4, "rollup.state"), snapRecord(fSnapData, []byte("CTTR")),
		snapFileRecord(snapKindWAL, 2, tsdb.WALFileName), snapRecord(fSnapData, []byte("wl")), end))
	f.Add(cat(snapFileRecord(2, 2, tsdb.WALFileName), snapRecord(fSnapData, []byte("xy")), end))
	f.Add(cat(snapFileRecord(snapKindBlock, 1, "../evil"), snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(snapKindBlock, 1, "a/b"), end))
	f.Add(cat(snapFileRecord(snapKindWAL, 5, tsdb.WALFileName), snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(2, 1, "s"), snapRecord(fSnapData, []byte("xy")), end))
	f.Add(cat(snapRecord(fSnapData, []byte("x")), end))
	f.Add(cat(snapFileRecord(3, 0, "x"), end))
	f.Add(cat(snapRecord(fSnapFile, []byte{0}), snapRecord(fSnapEnd, nil)))
	f.Add(cat(snapRecord(fError, append([]byte{codeProto}, appendStr(nil, "no")...))))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, files, maxBytes := snapStream(data)
		dir := filepath.Join("data", "node", stagingDir)
		rfs := &recordFS{}
		cfg := BootstrapConfig{Dir: filepath.Dir(dir), FS: rfs, Timeout: time.Second}
		receiveSnapshot(cfg, dir, nopConn{}, bufio.NewReader(bytes.NewReader(stream))) // an error or a position; a panic fails
		blocks := filepath.Join(dir, tsdb.BlockDirName)
		creates := 0
		for _, p := range rfs.created {
			switch {
			case p == blocks:
			case p == filepath.Join(dir, tsdb.WALFileName), filepath.Dir(p) == blocks:
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
