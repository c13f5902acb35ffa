package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// stamp fingerprints the host and the run, printed before the result
// line so a number can be compared only against runs of its kind.
type stamp struct {
	GitSHA     string `json:"git_sha"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_fs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Engine     string `json:"engine"`
}

func hostStamp(o *options) stamp {
	return stamp{
		GitSHA:     o.gitSHA,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
		GoVersion:  runtime.Version(),
		DataFS:     fsType(o.dataRoot),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    int(o.seconds.Seconds()),
		Trace:      o.trace,
		Engine:     engineConfig,
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

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsMagic names the filesystems statfs reports most often.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x01021997: "9p",
	0x6a656a63: "virtiofs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", st.Type)
}
