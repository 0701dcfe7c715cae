package main

// The environment block stamped on every result, so two runs that
// disagree can be told apart by machine before they are by program.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
	JournalDir string `json:"journal_dir"`
	JournalFS  string `json:"journal_fs"`
	// FsyncP50Us is a raw write+fsync loop on the journal directory,
	// taken before the journaled workload: a disk that drifted between
	// two runs shows here, next to journal.fs.sync_us. 0 until taken.
	FsyncP50Us float64 `json:"fsync_probe_p50_us"`
	// CPUProbeNs is the p50 time of a fixed integer loop, taken at the
	// start: on a shared machine it tells a slow hour from a slow commit.
	CPUProbeNs float64 `json:"cpu_probe_p50_ns"`
}

func readEnvironment(dir string, clients int, seed int64) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: "100",
		GoVersion: runtime.Version(), GitCommit: "unknown", Kernel: "unknown",
		Clients: clients, Seed: seed, JournalDir: dir, JournalFS: "unknown",
		CPUProbeNs: cpuProbe(),
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var sfs syscall.Statfs_t
	if syscall.Statfs(dir, &sfs) == nil {
		env.JournalFS = fsTypeName(int64(sfs.Type))
	}
	return env
}

func fsTypeName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// cpuProbe times 200 runs of a 100 000-step integer recurrence and
// returns the p50 in nanoseconds.
func cpuProbe() float64 {
	lat := make([]float64, 200)
	x := uint64(1)
	for i := range lat {
		start := time.Now()
		for j := 0; j < 100000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		lat[i] = float64(time.Since(start))
	}
	sink = x
	return median(lat)
}

// fsyncProbe is the p50 of n raw 128-byte write+fsync calls in dir,
// in microseconds.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 128)
	lat := make([]float64, n)
	for i := range lat {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat[i] = float64(time.Since(start)) / 1e3
	}
	return median(lat), nil
}
