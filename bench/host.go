package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the metadata every result carries, so a number can be traced
// back to the machine and configuration that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Transport:  "serve: loopback UDP (127.0.0.1); sweep: in-memory (tldsim.StreamMaterializer over dnsserver.MemNet); api: in-process http.Handler",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is expected
	// there and git's absence is not an error.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap reads the bytes the last GC mark proved live. Unlike HeapAlloc it
// leaves out garbage not yet collected, so it is what a stage holds, not how
// fast it allocates.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap in the background and keeps the peak.
type heapWatch struct {
	stop, done chan struct{}
	base, peak uint64
}

// watchHeap collects garbage, takes the settled live heap as the baseline
// and starts sampling. GC settings are left as the program runs with.
func watchHeap() *heapWatch {
	runtime.GC()
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), base: liveHeap()}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if v := liveHeap(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

// peakMB stops the sampler and returns the peak live heap over the baseline.
func (w *heapWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	if w.peak <= w.base {
		return 0
	}
	return float64(w.peak-w.base) / 1e6
}

// stageMeter measures one stage: wall, CPU, allocations and — in a traced
// run — peak live heap. The allocation counters come from ReadMemStats,
// which stops the world for a moment at each stage boundary, outside any
// timed window.
type stageMeter struct {
	start  time.Time
	cpu    float64
	mem    runtime.MemStats
	heap   *heapWatch
	Wall   float64
	CPU    float64
	Allocs uint64
	Bytes  uint64
	PeakMB float64
}

func beginStage(traced bool) *stageMeter {
	m := &stageMeter{}
	if traced {
		m.heap = watchHeap()
	}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuSeconds()
	m.start = time.Now()
	return m
}

func (m *stageMeter) finish() {
	m.Wall = time.Since(m.start).Seconds()
	m.CPU = cpuSeconds() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.Allocs = after.Mallocs - m.mem.Mallocs
	m.Bytes = after.TotalAlloc - m.mem.TotalAlloc
	if m.heap != nil {
		m.PeakMB = m.heap.peakMB()
	}
}
