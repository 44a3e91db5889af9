package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"voltsmooth/internal/chaos"
	"voltsmooth/internal/durable"
)

// TestConformance runs the durable.FS contract over the real filesystem
// and over a fault-free chaos plane, which must behave identically: the
// plane's fault-free path is its base, not a copy of it.
func TestConformance(t *testing.T) {
	impls := []struct {
		name string
		fs   func() durable.FS
	}{
		{"os", func() durable.FS { return durable.OS{} }},
		{"chaos-zero-fault", func() durable.FS { return chaos.NewFS(chaos.Plan{Seed: 7}, nil) }},
	}
	for _, impl := range impls {
		t.Run(impl.name+"/atomic-replace", func(t *testing.T) {
			fs := impl.fs()
			name := filepath.Join(t.TempDir(), "f")
			if err := fs.WriteFileAtomic(name, []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFileAtomic(name, []byte("new")); err != nil {
				t.Fatal(err)
			}
			if got, err := durable.ReadFile(fs, name); err != nil || string(got) != "new" {
				t.Fatalf("after replace read %q, %v; want \"new\"", got, err)
			}
			entries, _ := os.ReadDir(filepath.Dir(name))
			if len(entries) != 1 {
				t.Fatalf("replace left %d entries in its directory, want 1", len(entries))
			}
		})

		t.Run(impl.name+"/append-reread", func(t *testing.T) {
			fs := impl.fs()
			name := filepath.Join(t.TempDir(), "log")
			for _, line := range []string{"a\n", "b\n"} {
				if err := durable.Append(fs, name, []byte(line)); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := durable.ReadFile(fs, name); err != nil || string(got) != "a\nb\n" {
				t.Fatalf("reread %q, %v; want \"a\\nb\\n\"", got, err)
			}
		})

		t.Run(impl.name+"/lock", func(t *testing.T) {
			fs := impl.fs()
			name := filepath.Join(t.TempDir(), "f")
			release, err := fs.Lock(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Lock(name); !errors.Is(err, durable.ErrLocked) {
				t.Fatalf("second Lock returned %v, want ErrLocked", err)
			}
			if err := release(); err != nil {
				t.Fatal(err)
			}
			again, err := fs.Lock(name)
			if err != nil {
				t.Fatalf("Lock after release: %v", err)
			}
			again()
		})

		t.Run(impl.name+"/lock-wait", func(t *testing.T) {
			fs := impl.fs()
			name := filepath.Join(t.TempDir(), "f")
			release, err := fs.Lock(name)
			if err != nil {
				t.Fatal(err)
			}
			acquired := make(chan error, 1)
			go func() {
				r, err := durable.OS{}.LockWait(name)
				if err == nil {
					r()
				}
				acquired <- err
			}()
			select {
			case err := <-acquired:
				t.Fatalf("LockWait returned (%v) while the lock was held", err)
			case <-time.After(50 * time.Millisecond):
			}
			if err := release(); err != nil {
				t.Fatal(err)
			}
			if err := <-acquired; err != nil {
				t.Fatalf("LockWait after release: %v", err)
			}
		})
	}

	// The other half of "old or new": a replace the plane tears leaves the
	// old bytes in place.
	t.Run("chaos-torn/atomic-replace", func(t *testing.T) {
		name := filepath.Join(t.TempDir(), "f")
		if err := (durable.OS{}).WriteFileAtomic(name, []byte("old")); err != nil {
			t.Fatal(err)
		}
		fs := chaos.NewFS(chaos.Plan{Seed: 7, TornWritePerMille: 1000}, nil)
		if err := fs.WriteFileAtomic(name, []byte("new")); err == nil {
			t.Fatal("torn replace reported success")
		}
		if got, err := os.ReadFile(name); err != nil || string(got) != "old" {
			t.Fatalf("after torn replace read %q, %v; want \"old\"", got, err)
		}
	})
}
