//go:build linux

package tart_test

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// BenchmarkSyncProbe prices the durability call itself, apart from the log:
// a 64-byte WriteAt followed by fsync on a growing file (what FileLog does)
// against fdatasync on the same, on a region reserved with fallocate
// (unwritten extents: the first write to a block still converts it, which
// is metadata), and on a region written with zeros beforehand, where an
// overwrite changes neither size nor extents. Measured, not adopted
// (EXPERIMENTS.md, "Group-committed WAL"): a later WAL change should re-run
// this on its own box before betting on any of them.
func BenchmarkSyncProbe(b *testing.B) {
	const region = 1 << 20
	frame := make([]byte, 64)
	lanes := []struct {
		name    string
		prepare func(f *os.File) error // nil: the file grows with every write
		wrap    int64                  // > 0: writes stay inside the first wrap bytes
		sync    func(fd int) error
	}{
		{"fsync_growing", nil, 0, syscall.Fsync},
		{"fdatasync_growing", nil, 0, syscall.Fdatasync},
		{"fdatasync_fallocated", func(f *os.File) error {
			return syscall.Fallocate(int(f.Fd()), 0, 0, 1<<30)
		}, 0, syscall.Fdatasync},
		{"fdatasync_prezeroed", func(f *os.File) error {
			_, err := f.WriteAt(make([]byte, region), 0)
			return err
		}, region, syscall.Fdatasync},
	}
	for _, lane := range lanes {
		b.Run(lane.name, func(b *testing.B) {
			f, err := os.OpenFile(filepath.Join(b.TempDir(), "probe"), os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			if lane.prepare != nil {
				if err := lane.prepare(f); err != nil {
					b.Skipf("prepare: %v", err)
				}
				if err := f.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i * len(frame))
				if lane.wrap > 0 {
					off %= lane.wrap
				}
				if _, err := f.WriteAt(frame, off); err != nil {
					b.Fatal(err)
				}
				if err := lane.sync(int(f.Fd())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
