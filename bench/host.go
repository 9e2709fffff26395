package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/perfstat"
)

// llcBytes returns the size of the largest cache the kernel reports for
// cpu0, or 32 MiB when sysfs does not say.
func llcBytes() int64 {
	var largest int64
	for i := 0; i < 8; i++ {
		blob, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(blob))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > largest {
			largest = n * mult
		}
	}
	if largest == 0 {
		return 32 << 20
	}
	return largest
}

// procKB reads one "Key:   123 kB" line of a /proc file.
func procKB(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return strconv.ParseInt(fields[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("%s has no %s line", path, key)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	kb, err := procKB(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024, err
}

// usage is a getrusage(RUSAGE_SELF) reading.
type usage struct {
	user, sys float64
	minflt    int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{user: tv(ru.Utime), sys: tv(ru.Stime), minflt: int64(ru.Minflt)}
}

func (u usage) sub(v usage) usage {
	return usage{user: u.user - v.user, sys: u.sys - v.sys, minflt: u.minflt - v.minflt}
}

func (u usage) add(v usage) usage {
	return usage{user: u.user + v.user, sys: u.sys + v.sys, minflt: u.minflt + v.minflt}
}

// hostProbe holds the host controls of one traced run.
type hostProbe struct {
	triadGBs, flopsGF, spinS float64
	llcMB, arrayMB           float64
}

var probeSink float64

// measureHost runs the three controls. The triad arrays are each four
// times the last-level cache (hpc sheet: a bandwidth figure needs arrays
// the caches cannot hold), shrunk only if the host lacks the memory;
// arrayBytes > 0 overrides the size (the tiny test mode). The traffic is
// computed — 24 B per element, write-allocate ignored.
func measureHost(arrayBytes int64) hostProbe {
	llc := llcBytes()
	if arrayBytes <= 0 {
		arrayBytes = 4 * llc
		if kb, err := procKB("/proc/meminfo", "MemAvailable"); err == nil {
			if avail := kb << 10; 3*arrayBytes > avail/2 {
				arrayBytes = avail / 6
			}
		}
	}
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b { // first touch
		a[i], b[i], c[i] = 0, 1, 2
	}
	triad := 0.0
	for rep := 0; rep < 2; rep++ {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if gbs := 24 * float64(n) / time.Since(start).Seconds() / 1e9; gbs > triad {
			triad = gbs
		}
	}
	probeSink = a[n/2]

	// Eight independent multiply-add chains: the scalar floating-point
	// rate Go code can reach on this core (no SIMD), 16 flops per step.
	const steps = 1 << 23
	flops := 0.0
	for rep := 0; rep < 3; rep++ {
		x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		const m, d = 1.0000000001, 1e-12
		start := time.Now()
		for i := 0; i < steps; i++ {
			x0 = x0*m + d
			x1 = x1*m + d
			x2 = x2*m + d
			x3 = x3*m + d
			x4 = x4*m + d
			x5 = x5*m + d
			x6 = x6*m + d
			x7 = x7*m + d
		}
		if gf := 16 * steps / time.Since(start).Seconds() / 1e9; gf > flops {
			flops = gf
		}
		probeSink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
	}
	return hostProbe{
		triadGBs: triad, flopsGF: flops, spinS: perfstat.Spin(),
		llcMB: float64(llc) / (1 << 20), arrayMB: float64(arrayBytes) / (1 << 20),
	}
}

// provenance describes the host and tree a set of runs came from.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Time       string `json:"time"`
}

func readProvenance() provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes: llcBytes(), GoVersion: runtime.Version(), GitSHA: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			p.GitSHA += "-dirty"
		}
	}
	return p
}
