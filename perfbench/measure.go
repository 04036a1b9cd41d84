package main

import (
	"bufio"
	"bytes"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile names the highest percentile of n samples that still
// has at least ten samples beyond it (the rule the benchmark reports
// tail latencies by), or "" when n is too small for any.
func tailPercentile(n int) string {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return "p" + strconv.Itoa(p)
		}
	}
	return ""
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durStat aggregates per-call durations into a count, busy time and a
// log2 histogram of nanoseconds, so tracing hot calls keeps no per-call
// record.
type durStat struct {
	N    int64
	Busy time.Duration
	Hist [48]int64 // bucket k counts calls of [2^(k-1), 2^k) ns
}

func (s *durStat) add(d time.Duration) {
	s.N++
	s.Busy += d
	k := bits.Len64(uint64(d))
	if k >= len(s.Hist) {
		k = len(s.Hist) - 1
	}
	s.Hist[k]++
}

func (s *durStat) merge(o durStat) {
	s.N += o.N
	s.Busy += o.Busy
	for i, v := range o.Hist {
		s.Hist[i] += v
	}
}

// span is one traced interval kept in memory until the workload ends.
type span struct {
	Name   string  `json:"name"`
	ID     int64   `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// procStatus reads one "Key:   <n> kB" field of /proc/self/status in
// bytes, 0 when unavailable.
func procStatus(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseFloat(f[0], 64)
			return v * 1024
		}
	}
	return 0
}

// peakRSS is the process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS() float64 { return procStatus("VmHWM") }

// resetPeakRSS restarts VmHWM from the current resident set, so a pass
// can read its own peak. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// passPeaks collects each untraced pass's resident-set peak; when the
// kernel cannot reset VmHWM it falls back to the process-wide peak.
type passPeaks struct {
	peaks []float64
	reset bool
}

// begin collects the garbage earlier passes left, so it does not count
// against this one, and restarts VmHWM.
func (p *passPeaks) begin() {
	runtime.GC()
	p.reset = resetPeakRSS()
}

func (p *passPeaks) end() { p.peaks = append(p.peaks, peakRSS()) }

// median is the median per-pass peak in bytes.
func (p *passPeaks) median() float64 {
	if !p.reset {
		return peakRSS()
	}
	return median(p.peaks)
}

// wchar is the bytes this process has passed to write(2) and friends
// so far, from /proc/self/io: files, pipes and sockets alike.
func wchar() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			v, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return v
		}
	}
	return 0
}

// procCPU is the CPU time all of the process's threads have used. On a
// virtual machine it excludes the time the hypervisor ran other guests
// on this one's CPUs, which wall-clock time includes.
func procCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procUserCPU is the user part of procCPU.
func procUserCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as in procCPU
	return time.Duration(ru.Utime.Nano())
}

// procSample is the process-level counters a traced pass reports.
type procSample struct {
	cpu     time.Duration
	gc      uint32
	pauseNs uint64
	alloc   uint64
	wchar   int64
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:     procCPU(),
		gc:      m.NumGC,
		pauseNs: m.PauseTotalNs,
		alloc:   m.TotalAlloc,
		wchar:   wchar(),
	}
}

// procDelta accumulates process counters over the traced passes.
type procDelta struct {
	cpu     time.Duration
	gc      int64
	pauseNs int64
	alloc   int64
	wchar   int64
}

func (d *procDelta) add(a, b procSample) {
	d.cpu += b.cpu - a.cpu
	d.gc += int64(b.gc - a.gc)
	d.pauseNs += int64(b.pauseNs - a.pauseNs)
	d.alloc += int64(b.alloc - a.alloc)
	d.wchar += b.wchar - a.wchar
}

// heapLive reads the Go heap marked live by the last GC cycle.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := bytes.Cut(sc.Bytes(), []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
