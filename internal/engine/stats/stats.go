// Package stats is the engine's lightweight instrumentation: a fixed set
// of atomic counters (jobs, cache hits/misses, queue depth, worker
// occupancy) cheap enough to update on every operation, plus an immutable
// Snapshot for reports. It exists so the BENCH trajectory can track
// engine throughput and cache effectiveness without a metrics dependency.
package stats

import (
	"sync/atomic"

	"fcpn/internal/trace"
)

// Counters is the live, goroutine-safe counter set. The zero value is
// ready to use.
type Counters struct {
	// Jobs counts analysis jobs accepted by the engine.
	Jobs atomic.Int64
	// CacheHits / CacheMisses count content-addressed cache lookups
	// across every layer.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	// QueueDepth is the number of submitted jobs not yet picked up by a
	// worker (a gauge).
	QueueDepth atomic.Int64
	// QueueDepthPeak is the high-water mark of QueueDepth over the
	// engine's lifetime. With a bounded submission window it never
	// exceeds the window, which is what makes the gauge meaningful.
	QueueDepthPeak atomic.Int64
	// BusyWorkers is the number of workers currently executing a job
	// (a gauge).
	BusyWorkers atomic.Int64
	// BusyNanos accumulates worker busy time, for utilisation.
	BusyNanos atomic.Int64

	// Failure-mode counters (see docs/ENGINE.md "Failure modes"):
	// Timeouts counts jobs that hit their per-job deadline, Panics jobs
	// whose worker recovered a panic, QuarantineSkips jobs refused
	// because their canonical hash was quarantined by an earlier panic.
	Timeouts        atomic.Int64
	Panics          atomic.Int64
	QuarantineSkips atomic.Int64
}

// ObserveQueueDepth folds a just-observed queue depth into the peak
// gauge.
func (c *Counters) ObserveQueueDepth(depth int64) {
	for {
		peak := c.QueueDepthPeak.Load()
		if depth <= peak || c.QueueDepthPeak.CompareAndSwap(peak, depth) {
			return
		}
	}
}

// Snapshot is a consistent-enough point-in-time reading of the counters,
// JSON-ready for reports.
type Snapshot struct {
	Jobs        int64   `json:"jobs"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	QueueDepth  int64   `json:"queue_depth"`
	// QueueDepthPeak is the lifetime high-water mark of the queue gauge;
	// with AnalyzeBatch's bounded submission window it stays ≤ the window.
	QueueDepthPeak int64 `json:"queue_depth_peak"`
	BusyWorkers    int64 `json:"busy_workers"`
	Workers        int   `json:"workers"`

	// Failure-mode counters: deadline trips, recovered panics and
	// quarantine refusals.
	Timeouts        int64 `json:"timeouts,omitempty"`
	Panics          int64 `json:"panics,omitempty"`
	QuarantineSkips int64 `json:"quarantine_skips,omitempty"`
	// Utilization is cumulative worker busy time divided by
	// workers × wall time, in [0, 1] modulo sampling skew.
	Utilization float64 `json:"utilization"`
	// Trace is the engine-lifetime per-phase aggregate across every job,
	// including per-layer cache counters. Filled by engine.Stats; nil
	// when tracing never ran.
	Trace *trace.Report `json:"trace,omitempty"`
}

// Snapshot captures the counters. workers is the pool size and wallNanos
// the engine's elapsed wall-clock time, both needed for utilisation.
func (c *Counters) Snapshot(workers int, wallNanos int64) Snapshot {
	s := Snapshot{
		Jobs:            c.Jobs.Load(),
		CacheHits:       c.CacheHits.Load(),
		CacheMisses:     c.CacheMisses.Load(),
		QueueDepth:      c.QueueDepth.Load(),
		QueueDepthPeak:  c.QueueDepthPeak.Load(),
		BusyWorkers:     c.BusyWorkers.Load(),
		Workers:         workers,
		Timeouts:        c.Timeouts.Load(),
		Panics:          c.Panics.Load(),
		QuarantineSkips: c.QuarantineSkips.Load(),
	}
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.HitRate = float64(s.CacheHits) / float64(total)
	}
	if workers > 0 && wallNanos > 0 {
		s.Utilization = float64(c.BusyNanos.Load()) / (float64(workers) * float64(wallNanos))
	}
	return s
}
