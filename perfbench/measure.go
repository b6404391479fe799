package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples collects per-operation latencies.
type samples []time.Duration

// percentile is nearest-rank. ok is false unless at least ten samples lie
// beyond the percentile, the least that makes it a stable figure.
func (s samples) percentile(p float64) (ms float64, ok bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	return msOf(sorted[rank]), len(sorted)-1-rank >= 10
}

// scale converts measured durations to the reference host: a duration
// measured at relative speed s takes d*s there.
func (s samples) scale(speed float64) {
	for i, d := range s {
		s[i] = time.Duration(float64(d) * speed)
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// failures counts failed operations and keeps the first few reasons for
// the run record.
type failures struct {
	mu      sync.Mutex
	n       int64
	reasons []string
}

func (f *failures) add(source, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.reasons) < 20 {
		f.reasons = append(f.reasons, source+": "+reason)
	}
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// provenance identifies what was measured and where.
type provenance struct {
	Seed         uint64 `json:"seed"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workers      int    `json:"engine_workers"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func newProvenance(root string, seed uint64, workers int) provenance {
	p := provenance{
		Seed:         seed,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      workers,
		Commit:       "unknown",
		SourceDigest: sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes the program's Go sources and go.mod. It stands in
// for the commit where the checkout carries no version control data.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || rel == "go.mod" {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			io.WriteString(h, rel)
			io.Copy(h, f)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// meterPeriod is how often the speed meter runs its kernel.
const meterPeriod = 20 * time.Millisecond

// nominalKernel is the thread CPU time of one meterKernel run on the
// reference host, a 2-vCPU x86-64 VM. Timings are reported at that
// host's speed.
const nominalKernel = 300 * time.Microsecond

// speedMeter tracks how fast the host runs while a measurement runs.
//
// The machines this benchmark runs on share their cores with other
// tenants, and their speed drifts by up to 1.6x over minutes. Two things
// slow the benchmark down. The hypervisor steals CPU time, which the
// guest counts in /proc/stat. And the host runs the guest slower while it
// does run, through shared caches, memory and cores, which the guest
// cannot count. The meter reads both: the steal share of the interval,
// and the thread CPU time of a fixed kernel it runs every meterPeriod on
// its own OS thread. The kernel looks up random keys in a map of 64Ki
// entries, the kind of work the program spends its time on, but shares
// no code or data with it and allocates nothing. Time the thread spends
// stolen, waiting for a CPU, a P or the garbage collector is not thread
// CPU time, so the reading does not depend on how busy the program keeps
// the process, only, and to a lesser degree, on the program's pressure on
// shared caches and memory (TestSpeedMeterIgnoresProgramLoad bounds it).
//
// Over an interval with steal share s in which the kernel took k on
// average, the host ran at relative speed (1-s) x nominalKernel / k. A
// duration measured there is reported as duration x speed, a rate as
// rate / speed. The run record keeps every reading, so the raw figures
// can be recovered from it.
type speedMeter struct {
	stop, done     chan struct{}
	mu             sync.Mutex
	cpu            time.Duration
	runs           int
	steal0, total0 float64
	sink           uint64
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.steal0, m.total0 = cpuTicks()
	table := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		table[i*2654435761] = i
	}
	go func() {
		defer close(m.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(meterPeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			sum := meterKernel(table)
			d := threadCPU() - t0
			m.mu.Lock()
			m.cpu += d
			m.runs++
			m.sink += sum
			m.mu.Unlock()
		}
	}()
	return m
}

// meterKernel looks up 4096 pseudo-random keys, present and absent, in
// table.
func meterKernel(table map[uint64]uint64) uint64 {
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += table[(x%(1<<17))*2654435761]
	}
	return sum
}

// speed returns the host's speed relative to the reference host since
// the previous call and starts a new interval. Without a kernel run in
// the interval it counts the kernel at its nominal time.
func (m *speedMeter) speed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	steal, total := cpuTicks()
	run := 1.0
	if m.runs > 0 && m.cpu > 0 {
		run = float64(nominalKernel) * float64(m.runs) / float64(m.cpu)
	}
	if total > m.total0 {
		run *= 1 - (steal-m.steal0)/(total-m.total0)
	}
	m.cpu, m.runs = 0, 0
	m.steal0, m.total0 = steal, total
	return run
}

// close stops the meter and waits for its goroutine.
func (m *speedMeter) close() {
	close(m.stop)
	<-m.done
}
