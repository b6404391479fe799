package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fcpn"
	"fcpn/internal/engine"
	"fcpn/internal/engine/stats"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// statusSkippedResume is the qssd-level status of a net whose report was
// rehydrated from the journal instead of re-analysed. It extends the
// engine's JobStatus vocabulary in reports only.
const statusSkippedResume = "skipped-resume"

// batchReport is the JSON document qssd emits, in batch and in client
// mode. Per-net reports are deterministic; timings are not.
type batchReport struct {
	Workers int `json:"workers"`
	Repeat  int `json:"repeat"`
	Nets    int `json:"nets"`
	Jobs    int `json:"jobs"`
	// GoMaxProcs and NumCPU describe the host's real parallelism: with
	// GOMAXPROCS=1 every speedup is bounded by 1.0 regardless of worker
	// count. GoVersion names the toolchain the binary was built with.
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	// ParallelismWarning is set when the host gives the process a single
	// scheduling slot (GOMAXPROCS=1): every parallel-speedup figure below
	// is then bounded by 1.0 and says nothing about the engine.
	ParallelismWarning string `json:"parallelism_warning,omitempty"`

	// StatusCounts tallies per-net outcomes of the cold pass: "ok",
	// "timeout", "panicked", "quarantined", "error", plus
	// "skipped-resume" for nets rehydrated from a -resume journal.
	StatusCounts map[string]int `json:"status_counts"`

	// Cold pass: every distinct net once, empty cache.
	ColdElapsedMS  float64 `json:"cold_elapsed_ms"`
	ColdNetsPerSec float64 `json:"cold_nets_per_sec"`
	// Warm passes (-repeat > 1): the same corpus against the warm cache.
	WarmElapsedMS  float64 `json:"warm_elapsed_ms,omitempty"`
	WarmNetsPerSec float64 `json:"warm_nets_per_sec,omitempty"`
	// ElapsedMS is the total batch wall time (cold + warm passes).
	ElapsedMS float64 `json:"elapsed_ms"`

	// Stats is the in-process engine's lifetime snapshot (batch mode
	// only; in client mode the engine lives in the server).
	Stats *stats.Snapshot `json:"stats,omitempty"`

	// SerialColdElapsedMS and Speedup are present with -compare-serial:
	// the cold pass rerun on a fresh one-worker engine, and the ratio
	// serial/parallel of the two cold passes.
	SerialColdElapsedMS float64 `json:"serial_cold_elapsed_ms,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`

	// Client mode (-server): where the requests went, request throughput
	// over all passes, the service's cache-marker tallies split by pass
	// regime, and the service's own /v1/stats document. Availability is
	// the fraction of requests answered 200 after client-side retries —
	// with a coordinator absorbing backend faults it should stay 1.0
	// even with a host killed mid-batch (TestCoordChaosSoak). The latency
	// percentiles are nearest-rank over every request of every pass.
	ServerURL      string          `json:"server_url,omitempty"`
	RequestsPerSec float64         `json:"requests_per_sec,omitempty"`
	Availability   float64         `json:"availability,omitempty"`
	LatencyP50MS   float64         `json:"latency_p50_ms,omitempty"`
	LatencyP99MS   float64         `json:"latency_p99_ms,omitempty"`
	ColdCache      map[string]int  `json:"cold_cache,omitempty"`
	WarmCache      map[string]int  `json:"warm_cache,omitempty"`
	ServerStats    json.RawMessage `json:"server_stats,omitempty"`

	Results []netResult `json:"results"`
}

// netResult is one corpus entry: where the net came from, its
// deterministic report, this run's cold-pass wall-clock analysis time and
// the cold pass's per-phase trace (whose non-detail phases sum to
// ElapsedMS modulo scheduling glue).
type netResult struct {
	Source    string            `json:"source"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Trace     *trace.Report     `json:"trace,omitempty"`
	Report    *engine.NetReport `json:"report"`
	// Status is the job outcome ("ok", "timeout", "panicked",
	// "quarantined", "error", "skipped-resume"); Error carries the typed
	// job error's message for every non-ok status. In client mode the
	// service's cache marker ("hit"/"miss") rides along.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Cache  string `json:"cache,omitempty"`
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loadCorpus assembles the net list: manifest entries, then positional
// files, then generated nets. Sources are the file paths, or "gen:<seed>"
// for generated nets.
func loadCorpus(manifest string, files []string, gen int, genSeed uint64) ([]string, []*petri.Net, error) {
	var sources []string
	var nets []*petri.Net
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := fcpn.Parse(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sources = append(sources, path)
		nets = append(nets, n)
		return nil
	}

	if manifest != "" {
		f, err := os.Open(manifest)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		dir := filepath.Dir(manifest)
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !filepath.IsAbs(line) {
				line = filepath.Join(dir, line)
			}
			if err := add(line); err != nil {
				return nil, nil, err
			}
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	}
	for _, path := range files {
		if err := add(path); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < gen; i++ {
		seed := genSeed + uint64(i)
		sources = append(sources, fmt.Sprintf("gen:%d", seed))
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	return sources, nets, nil
}
