// Package fsio is the filesystem seam under the storage engine. The
// WAL, the block layer and the replication snapshot receiver perform
// every filesystem operation through the FS interface instead of calling the
// os package directly, so a test can substitute an implementation that
// fails — a specific write returns ENOSPC, an fsync reports EIO, a
// crash discards everything after the Nth operation — and prove the
// engine's crash- and fault-tolerance claims instead of asserting
// them. Production code uses OS, a zero-cost passthrough to the os
// package; FaultFS (faultfs.go) is the injecting implementation the
// torture tests drive.
package fsio

import (
	"io"
	"os"
)

// File is the subset of *os.File the storage engine uses: buffered
// appends (Write), positional reads (ReadAt), replay scans (Read +
// Seek), durability (Sync), torn-tail repair (Truncate) and size
// discovery (Stat).
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the storage engine consumes. Every
// method mirrors its os-package namesake; SyncDir is the
// open-directory-and-fsync idiom that makes renames crash-durable,
// named as an operation so fault plans can target it.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Create(name string) (File, error)
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	SyncDir(dir string) error
}

// OS is the production FS: a direct passthrough to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
