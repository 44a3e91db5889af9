// Package durable owns every decision about files that must outlive the
// process that wrote them: the temp-file name pattern, atomic replace,
// appends, directory creation, and the "<name>.lock" flock sidecar. The
// journal, the lease layer, the job store, and the chaos plane all go
// through it instead of keeping their own copies.
//
// Failure model: every write this package completes survives process
// death and an OS crash. Atomic replace fsyncs the data, renames, then
// fsyncs the parent directory so the new entry is itself durable; a file
// or directory this package creates has its parent directory fsynced
// too. Data written through an OpenAppend handle is durable once the
// caller's Sync returns (Append does that itself).
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// ErrLocked reports a Lock refused because a live holder has the sidecar.
var ErrLocked = errors.New("durable: locked by another holder")

// File is the slice of *os.File the durable-file users need. Reads happen
// on OpenRead handles; writes and syncs on OpenAppend handles.
type File interface {
	io.Reader
	io.Writer
	// Sync forces written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the one filesystem seam: the operations the journal and the lease
// layer perform, so a fault plane (internal/chaos) can sit between them
// and the OS. OS is the real implementation.
type FS interface {
	Stat(name string) (os.FileInfo, error)
	// OpenRead opens name for reading.
	OpenRead(name string) (File, error)
	// OpenAppend opens name for appending, creating it if needed.
	OpenAppend(name string) (File, error)
	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error
	// WriteFileAtomic replaces name with data: after any crash the file
	// holds either its old contents or the complete new ones, never a
	// prefix.
	WriteFileAtomic(name string, data []byte) error
	// Lock takes a non-blocking exclusive flock on the "<name>.lock"
	// sidecar and returns the release function. A sidecar held by a live
	// holder is an error wrapping ErrLocked. The lock dies with its
	// holder, so a SIGKILLed process never wedges the next one.
	Lock(name string) (release func() error, err error)
}

// OS is the real filesystem.
type OS struct{}

func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (OS) OpenRead(name string) (File, error) { return os.Open(name) }

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// OpenAppend opens name for appending. When the call creates the file it
// fsyncs the parent directory, so the new entry survives an OS crash.
func (OS) OpenAppend(name string) (File, error) {
	const flags = os.O_WRONLY | os.O_APPEND
	for {
		f, err := os.OpenFile(name, flags, 0)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		f, err = os.OpenFile(name, flags|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // a concurrent opener created it first
		}
		if err != nil {
			return nil, err
		}
		if err := syncDir(filepath.Dir(name)); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
}

// WriteFileAtomic writes data to a temp file next to name, fsyncs it,
// renames it over name, and fsyncs the parent directory.
func (OS) WriteFileAtomic(name string, data []byte) error {
	tmp, err := CreateTemp(name)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		return err
	}
	return syncDir(filepath.Dir(name))
}

// Rename renames oldname to newname and fsyncs newname's parent
// directory, so the move survives an OS crash. Both names must share a
// directory.
func (OS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	return syncDir(filepath.Dir(newname))
}

// Remove removes name and fsyncs its parent directory, so the removal
// survives an OS crash.
func (OS) Remove(name string) error {
	if err := os.Remove(name); err != nil {
		return err
	}
	return syncDir(filepath.Dir(name))
}

// MkdirAll creates dir and any missing parents, fsyncing the parent of
// each directory it creates. An existing dir costs one stat and no fsync.
func (o OS) MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil {
		if fi.IsDir() {
			return nil
		}
		return &fs.PathError{Op: "mkdir", Path: dir, Err: syscall.ENOTDIR}
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := o.MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		// Losing a race to a concurrent creator is fine if it made a
		// directory; the sync below still covers its entry.
		if fi, serr := os.Stat(dir); serr != nil || !fi.IsDir() {
			return err
		}
	}
	return syncDir(parent)
}

// Lock implements FS.Lock with flock(LOCK_EX|LOCK_NB). flock, not an
// O_EXCL sentinel, because the kernel releases it when the descriptor
// closes for any reason, SIGKILL included. The sidecar is never removed:
// removing it would race a concurrent locker onto a dead inode.
func (OS) Lock(name string) (func() error, error) { return lock(name, syscall.LOCK_NB) }

// LockWait is Lock that blocks until the holder releases, for
// microsecond transactions every caller must get through (the store's
// job-ID counter).
func (OS) LockWait(name string) (func() error, error) { return lock(name, 0) }

func lock(name string, nonBlock int) (func() error, error) {
	path := name + ".lock"
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|nonBlock); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return nil, fmt.Errorf("durable: flock %s: %w", path, err)
	}
	return f.Close, nil
}

// tmpInfix marks WriteFileAtomic's temp files: ".<name>.tmp-<random>".
const tmpInfix = ".tmp-"

// CreateTemp creates the temp file an atomic replace of name stages its
// bytes in. Anything that leaves a would-be replacement of name on disk
// uses it, so IsTemp recognizes every such orphan.
func CreateTemp(name string) (*os.File, error) {
	return os.CreateTemp(filepath.Dir(name), "."+filepath.Base(name)+tmpInfix)
}

// IsTemp reports whether a directory entry's base name is a CreateTemp
// file. One left behind by a dead process was by definition never renamed
// into place, so it is always safe to remove.
func IsTemp(base string) bool {
	return strings.HasPrefix(base, ".") && strings.Contains(base, tmpInfix)
}

// ReadFile reads the whole file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenRead(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Append appends data to name through fsys, creating it if needed, and
// fsyncs before close: the data is durable when Append returns nil.
func Append(fsys FS, name string, data []byte) error {
	f, err := fsys.OpenAppend(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable. A variable so the package's tests can observe the ordering.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
