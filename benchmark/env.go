package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// envInfo records where a result was measured; results from different
// environments are not comparable.
type envInfo struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	StateDir     string  `json:"state_dir"`
	StateDirFS   string  `json:"state_dir_fs"`
	FsyncProbeUs float64 `json:"fsync_probe_us"`
}

// minFsyncUs is the smallest believable write+fsync: below it the state
// directory is not on a real disk and the durable workloads would silently
// measure tcp_wide.
const minFsyncUs = 20

func probeEnv(stateDir string) (envInfo, error) {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateDir:   stateDir,
		StateDirFS: fsType(stateDir),
	}
	us, err := fsyncProbe(stateDir, 200)
	if err != nil {
		return env, err
	}
	env.FsyncProbeUs = us
	return env, nil
}

// fsyncProbe returns the median microseconds of a 64-byte append + fsync
// in dir: the floor the environment puts under every durable record.
func fsyncProbe(dir string, n int) (float64, error) {
	path := filepath.Join(dir, "fsync.probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 64)
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		durs = append(durs, float64(time.Since(t0))/1e3)
	}
	return median(durs), nil
}

var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x858458F6: "ramfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// checkDurable refuses to run a durable workload where fsync is free.
func (e envInfo) checkDurable() error {
	if e.StateDirFS == "tmpfs" || e.StateDirFS == "ramfs" {
		return fmt.Errorf("state dir %s is on %s: durable workloads need a real disk (use -state-dir)", e.StateDir, e.StateDirFS)
	}
	if e.FsyncProbeUs < minFsyncUs {
		return fmt.Errorf("write+fsync in %s takes %.1f us (< %d us): fsync is not reaching a disk, durable workloads would measure tcp_wide",
			e.StateDir, e.FsyncProbeUs, minFsyncUs)
	}
	return nil
}
