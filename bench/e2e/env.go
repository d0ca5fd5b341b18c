package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envStamp identifies where a record was measured. Records compare only
// when every field but Commit agrees, so a hardware, toolchain or
// filesystem change cannot pass for a code change.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_fs"`
	Commit     string `json:"commit"`
}

// machine is the stamp without the commit: what two compared sets of runs
// must share.
func (e envStamp) machine() envStamp {
	e.Commit = ""
	return e
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s data_fs=%s commit=%s",
		e.NProc, e.GOMAXPROCS, e.CPU, e.GoVersion, e.DataFS, e.Commit)
}

// stampEnv describes this machine. The harness is built by the same
// toolchain that builds the server, so runtime.Version names both.
func stampEnv(root, dataDir string, gomaxprocs int) envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		DataFS:     fsType(dataDir),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the statfs magic numbers of the filesystems a data
// directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; a checkout that is not a repository stamps "none".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}
