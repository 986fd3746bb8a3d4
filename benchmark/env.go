package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envBlock heads every result file: enough to tell whether two files may
// be compared at all.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	SpillDir   string `json:"spill_dir"`
	SpillFS    string `json:"spill_fs"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
}

func newEnv(root string, cfg runConfig) envBlock {
	dir, fs := spillBase(root)
	return envBlock{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		SpillDir:   dir,
		SpillFS:    fs,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		Seconds:    cfg.Seconds,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (the acceptance driver runs from a plain file tree).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// moduleRoot walks up from the working directory to the go.mod of module
// simdtree, so the harness works from the repo root (go run ./benchmark)
// and from its own directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module simdtree\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("simdmark: no go.mod of module simdtree above the working directory; run from the repository")
		}
		dir = parent
	}
}

// workDir is where a run keeps everything it creates and removes again.
func workDir(root string) string { return filepath.Join(root, "benchmark", ".work") }

// fsMagic names the filesystems a spill directory is likely to sit on.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// spillBase picks the parent of the spill-tight segment directories.  Each
// eviction creates and each fault deletes one small file, which on a
// journalled disk costs 3-10x what it costs on tmpfs and varies +-30 % run
// to run, so the number would be the disk and not the program.  The work
// directory is used when it already is tmpfs; otherwise /dev/shm when that
// is a writable tmpfs; otherwise the work directory, whatever it is on.
func spillBase(root string) (dir, fs string) {
	wd := workDir(root)
	if err := os.MkdirAll(wd, 0o755); err == nil && fsType(wd) == "tmpfs" {
		return wd, "tmpfs"
	}
	if fsType("/dev/shm") == "tmpfs" {
		if probe, err := os.MkdirTemp("/dev/shm", "simdmark-probe-*"); err == nil {
			if err := os.Remove(probe); err == nil {
				return "/dev/shm", "tmpfs"
			}
		}
	}
	return wd, fsType(wd)
}

// spillParent is spillBase for a workload about to spill.  A full-scale run
// is refused when the directory is not tmpfs: its figures would be compared
// against baselines taken on tmpfs.  The short scale checks the plumbing and
// compares no timing, so it runs anywhere.
func spillParent(root, scale string) (string, error) {
	dir, fs := spillBase(root)
	if fs != "tmpfs" && scale == "full" {
		return "", fmt.Errorf("spill directory %s is on %s, not tmpfs, and /dev/shm is no writable tmpfs: spill-tight would measure the disk; mount a tmpfs at %s",
			dir, fs, workDir(root))
	}
	return dir, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on every
// Linux the Go runtime supports).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	const tick = time.Second / 100
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB returns VmHWM, the peak resident set, of process pid in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS (Linux
// 4.0+: writing 5 to clear_refs), so a peak can be read per op.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics; with fewer than 100/(100-p) samples the top
// percentiles are the slowest sample, and the printed sample count says so.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0 for an empty base, for shares whose layer a workload
// never entered.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 is the repository's seed-derivation PRNG.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// deriveSeeds turns the run seed and a workload's position into n input
// seeds, so workloads never share a tree and the same -seed always makes
// the same inputs.
func deriveSeeds(seed int64, stream uint64, n int) []uint64 {
	state := uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xd1342543de82ef95
	out := make([]uint64, n)
	for i := range out {
		// The synthetic domain and the service treat seed 0 as "unset".
		for out[i] == 0 {
			out[i] = splitmix64(&state) >> 1
		}
	}
	return out
}
