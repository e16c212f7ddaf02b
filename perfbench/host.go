package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostRecord describes the machine a result was measured on, so that
// results from different hosts are never compared silently.
type hostRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealRatio float64 `json:"steal_ratio"`
	// startStat holds /proc/stat's aggregate cpu line at start.
	startStat []uint64
}

func startHost() *hostRecord {
	return &hostRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		startStat:  cpuTimes(),
	}
}

// finish fills in the share of CPU time the hypervisor stole from this
// host while the run went on, or -1 where /proc/stat is unreadable.
func (h *hostRecord) finish() *hostRecord {
	end := cpuTimes()
	h.StealRatio = -1
	// Fields: user nice system idle iowait irq softirq steal ...
	if len(h.startStat) >= 8 && len(end) >= 8 {
		var total uint64
		for i := 0; i < 8; i++ {
			total += end[i] - h.startStat[i]
		}
		if total > 0 {
			h.StealRatio = float64(end[7]-h.startStat[7]) / float64(total)
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes returns the aggregate "cpu" line of /proc/stat in clock ticks.
func cpuTimes() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, n)
	}
	return out
}

// resetPeakRSS returns the heap's garbage to the OS and resets the
// process's peak resident set size to its current one, so that a later
// maxRSSMB covers only what runs after the call and not the set-up.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// rtStat is a reading of the Go runtime's cumulative allocation and GC
// counters.
type rtStat struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRT() rtStat {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStat{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcCPU: s[2].Value.Float64()}
}

func (a rtStat) sub(b rtStat) rtStat {
	return rtStat{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU}
}

// samples collects durations and reports order statistics over them.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile in microseconds.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Microsecond)
}

func (s samples) p50() float64 { return s.quantile(0.5) }
func (s samples) p99() float64 { return s.quantile(0.99) }

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
