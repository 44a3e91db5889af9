package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recordSyncs replaces syncDir for the test, logging each synced
// directory through note, and restores it afterwards.
func recordSyncs(t *testing.T, note func(dir string)) {
	t.Helper()
	orig := syncDir
	syncDir = func(dir string) error {
		note(dir)
		return orig(dir)
	}
	t.Cleanup(func() { syncDir = orig })
}

// TestWriteFileAtomicSyncsParentAfterRename: the parent directory is
// fsynced after the rename — when the sync runs, the file already holds
// the new bytes — so the replacement survives an OS crash.
func TestWriteFileAtomicSyncsParentAfterRename(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	if err := os.WriteFile(name, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	recordSyncs(t, func(d string) {
		data, _ := os.ReadFile(name)
		seen = append(seen, d+" holds "+string(data))
	})
	if err := (OS{}).WriteFileAtomic(name, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if want := []string{dir + " holds new"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("dir syncs %q, want %q", seen, want)
	}
}

// TestRenameAndRemoveSyncParent: a rename and a removal each sync the
// parent directory after the entry has moved, so neither reverts after an
// OS crash.
func TestRenameAndRemoveSyncParent(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	recordSyncs(t, func(d string) {
		_, errA := os.Stat(a)
		_, errB := os.Stat(b)
		seen = append(seen, fmt.Sprintf("%s a=%v b=%v", d, errA == nil, errB == nil))
	})
	if err := (OS{}).Rename(a, b); err != nil {
		t.Fatal(err)
	}
	if err := (OS{}).Remove(b); err != nil {
		t.Fatal(err)
	}
	want := []string{dir + " a=false b=true", dir + " a=false b=false"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("dir syncs %q, want %q", seen, want)
	}
}

// TestCreationSyncsParent: every directory MkdirAll creates and every
// file OpenAppend creates gets a sync of its parent; opening what already
// exists syncs nothing.
func TestCreationSyncsParent(t *testing.T) {
	root := t.TempDir()
	var synced []string
	recordSyncs(t, func(d string) { synced = append(synced, d) })
	var fsys OS

	a, b := filepath.Join(root, "a"), filepath.Join(root, "a", "b")
	if err := fsys.MkdirAll(b); err != nil {
		t.Fatal(err)
	}
	if want := []string{root, a}; !reflect.DeepEqual(synced, want) {
		t.Fatalf("MkdirAll synced %q, want %q", synced, want)
	}

	synced = nil
	if err := fsys.MkdirAll(b); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenAppend(filepath.Join(b, "log"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f, err = fsys.OpenAppend(filepath.Join(b, "log")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if want := []string{b}; !reflect.DeepEqual(synced, want) {
		t.Fatalf("existing dir + create + reopen synced %q, want %q", synced, want)
	}
}

// syncCounter counts Sync calls on the handles its OpenAppend returns.
type syncCounter struct {
	FS
	syncs int
}

func (c *syncCounter) OpenAppend(name string) (File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, c: c}, nil
}

type countingFile struct {
	File
	c *syncCounter
}

func (f countingFile) Sync() error {
	f.c.syncs++
	return f.File.Sync()
}

// TestAppendSyncs: Append fsyncs before it returns.
func TestAppendSyncs(t *testing.T) {
	fs := &syncCounter{FS: OS{}}
	if err := Append(fs, filepath.Join(t.TempDir(), "log"), []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if fs.syncs != 1 {
		t.Fatalf("Append synced %d times, want 1", fs.syncs)
	}
}
