// Package trace is the pipeline's lightweight phase tracer: named spans
// aggregated into per-phase duration statistics (count, total, min/max,
// log-scale histogram) plus free-form counters, cheap enough to leave on
// permanently. It exists so the per-phase cost profile of the synthesis
// pipeline — parse/classify, semiflow enumeration, reduction, the
// schedulability sweep, code generation — is visible in every report
// instead of requiring an external profiler (the phases range from
// polynomial to NP-hard, so "where does the time go" has no static
// answer).
//
// Design constraints:
//
//   - stdlib only, no metrics dependency (mirrors internal/engine/stats);
//   - allocation-frugal: starting and ending a span allocates nothing
//     after a phase's first use (Span is a value, aggregates are reused);
//   - goroutine-safe: spans may end on any goroutine, so one tracer can
//     aggregate the jobs of a whole worker pool (internal/engine merges
//     every job's tracer into its lifetime tracer);
//   - a nil *Tracer is valid everywhere and disables collection, so
//     callers thread the tracer unconditionally.
//
// Phases come in two kinds. Top-level phases partition a job's wall time
// (their totals sum to the job's elapsed time, modulo unattributed glue);
// detail phases are nested inside a top-level phase (one span per
// T-reduction check, per Farkas run, …) and would double-count in any
// sum. Report keeps them apart so consumers can check coverage against
// the top-level phases only.
package trace

import (
	"sort"
	"sync"
	"time"
)

// NumBuckets is the number of histogram buckets per phase. Bucket i
// counts spans with duration < Boundaries[i]; the last bucket is
// unbounded.
const NumBuckets = 6

// Boundaries are the upper bounds of the first NumBuckets-1 histogram
// buckets. BucketLabels names all NumBuckets buckets in report order.
var (
	Boundaries = [NumBuckets - 1]time.Duration{
		100 * time.Microsecond,
		time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
		time.Second,
	}
	BucketLabels = [NumBuckets]string{
		"<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s",
	}
)

// phase is the live aggregate for one phase name.
type phase struct {
	count   int64
	total   time.Duration
	min     time.Duration
	max     time.Duration
	buckets [NumBuckets]int64
	detail  bool
}

// Tracer collects span aggregates and counters. The zero value is ready
// to use; a nil *Tracer is a valid no-op collector.
type Tracer struct {
	mu       sync.Mutex
	phases   map[string]*phase
	counters map[string]int64
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Span is an in-flight measurement returned by Start. It is a plain
// value: copying is fine, and End on the zero Span is a no-op.
type Span struct {
	tr     *Tracer
	name   string
	start  time.Time
	detail bool
}

// Start opens a top-level span. Top-level spans of one job are expected
// to be non-overlapping, so their totals account for the job's wall
// time.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, start: time.Now()}
}

// StartDetail opens a detail span: a measurement nested inside some
// top-level phase (e.g. one per-allocation schedulability check inside
// the solve phase). Detail spans are reported separately so they never
// double-count in wall-time sums.
func (t *Tracer) StartDetail(name string) Span {
	s := t.Start(name)
	s.detail = true
	return s
}

// End closes the span and records its duration.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.record(s.name, time.Since(s.start), s.detail)
}

// Observe records an externally measured duration under a phase name,
// for callers that already hold a timing (e.g. merging a sub-report).
func (t *Tracer) Observe(name string, d time.Duration, detail bool) {
	if t == nil {
		return
	}
	t.record(name, d, detail)
}

func (t *Tracer) record(name string, d time.Duration, detail bool) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.phase(name, detail)
	p.count++
	p.total += d
	if d < p.min || p.count == 1 {
		p.min = d
	}
	if d > p.max {
		p.max = d
	}
	p.buckets[bucketOf(d)]++
}

// phase returns the aggregate for name, creating it on first use. Must
// be called with t.mu held.
func (t *Tracer) phase(name string, detail bool) *phase {
	if t.phases == nil {
		t.phases = make(map[string]*phase)
	}
	p, ok := t.phases[name]
	if !ok {
		p = &phase{detail: detail}
		t.phases[name] = p
	}
	return p
}

func bucketOf(d time.Duration) int {
	for i, b := range Boundaries {
		if d < b {
			return i
		}
	}
	return NumBuckets - 1
}

// Add increments a named counter (cache hits per layer, rows enumerated,
// …). Counters are monotone and deterministic where the underlying event
// counts are.
func (t *Tracer) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += n
}

// Merge folds the other tracer's aggregates into t (per-phase stats add
// up; min/max widen; counters sum). The engine uses it to fold each
// job's tracer into the engine-lifetime aggregate.
func (t *Tracer) Merge(other *Tracer) {
	if t == nil || other == nil {
		return
	}
	// Snapshot other first so the two locks never nest.
	t.MergeReport(other.Report())
}

// MergeReport folds a snapshot taken with Report into t, as Merge folds
// the tracer it came from. A caller that keeps the snapshot (the engine
// returns each job's) then takes it once.
func (t *Tracer) MergeReport(rep *Report) {
	if t == nil || rep == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range rep.Phases {
		p := t.phase(ps.Name, ps.Detail)
		if p.count == 0 || ps.minDuration < p.min {
			p.min = ps.minDuration
		}
		if ps.maxDuration > p.max {
			p.max = ps.maxDuration
		}
		p.count += ps.Count
		p.total += ps.totalDuration
		for i, c := range ps.Buckets {
			p.buckets[i] += c
		}
	}
	if len(rep.Counters) > 0 && t.counters == nil {
		t.counters = make(map[string]int64)
	}
	for name, v := range rep.Counters {
		t.counters[name] += v
	}
}

// PhaseStat is the JSON-ready aggregate of one phase.
type PhaseStat struct {
	Name  string `json:"phase"`
	Count int64  `json:"count"`
	// TotalMS/MinMS/MaxMS are durations in milliseconds. Durations are
	// the only non-deterministic fields; Count and the per-phase
	// presence are identical across worker counts and cache states for
	// the same input (the worker-independence tests assert this).
	TotalMS float64 `json:"total_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
	// Buckets is the duration histogram in BucketLabels order.
	Buckets [NumBuckets]int64 `json:"buckets"`
	// Detail marks nested spans that overlap a top-level phase and must
	// be excluded from wall-time sums.
	Detail bool `json:"detail,omitempty"`

	minDuration, maxDuration, totalDuration time.Duration
}

// Report is a point-in-time snapshot of a tracer, JSON-ready. Phases are
// sorted by name for stable output.
type Report struct {
	Phases   []PhaseStat      `json:"phases,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Report snapshots the tracer. A nil tracer reports nil.
func (t *Tracer) Report() *Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := &Report{}
	for name, p := range t.phases {
		rep.Phases = append(rep.Phases, PhaseStat{
			Name:          name,
			Count:         p.count,
			TotalMS:       ms(p.total),
			MinMS:         ms(p.min),
			MaxMS:         ms(p.max),
			Buckets:       p.buckets,
			Detail:        p.detail,
			minDuration:   p.min,
			maxDuration:   p.max,
			totalDuration: p.total,
		})
	}
	sort.Slice(rep.Phases, func(i, j int) bool { return rep.Phases[i].Name < rep.Phases[j].Name })
	if len(t.counters) > 0 {
		rep.Counters = make(map[string]int64, len(t.counters))
		for name, v := range t.counters {
			rep.Counters[name] = v
		}
	}
	return rep
}

// TopTotalMS sums the totals of the non-detail phases: the traced
// account of a job's wall time.
func (r *Report) TopTotalMS() float64 {
	if r == nil {
		return 0
	}
	sum := 0.0
	for _, p := range r.Phases {
		if !p.Detail {
			sum += p.TotalMS
		}
	}
	return sum
}

// Counter returns the named counter's value, or 0 when absent (including
// on a nil report). Failure-mode counters like "engine/quarantined" are
// read through this in tests and reports.
func (r *Report) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.Counters[name]
}

// Phase returns the named phase's stats, or a zero PhaseStat if absent.
func (r *Report) Phase(name string) (PhaseStat, bool) {
	if r == nil {
		return PhaseStat{}, false
	}
	for _, p := range r.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
