// Package engine is the concurrent QSS analysis engine: a long-running,
// goroutine-safe front end over internal/core that shards a stream of nets
// across a bounded worker pool and memoises the expensive intermediates —
// minimal T-semiflows, complete schedules and timing verdicts — in a
// content-addressed cache keyed by the canonical structural hash of each
// net (petri.CanonicalForm).
//
// Determinism contract: every cached payload is stored in canonical index
// space and every report field is derived from the canonical payload
// mapped back into the requesting net's index space, for cold and warm
// paths alike. A cache hit therefore returns byte-identical results to a
// cold run, and results are independent of the worker count and of
// whether Analyze or Synthesize reached the schedule first. See
// docs/ENGINE.md.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine/stats"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// ErrEngineClosed is returned by Analyze/AnalyzeBatch/Synthesize after
// Close: the worker pool is gone, so new jobs cannot run. (The cache
// stays readable through results already held by the caller.)
var ErrEngineClosed = errors.New("engine: closed")

// ErrJobTimeout is the typed failure of a job that exceeded
// Config.JobTimeout. It is installed as the deadline's cancellation
// cause, so it survives errors.Is through every layer the context
// threads into (core's sweep, cycle search, reduction enumeration).
var ErrJobTimeout = errors.New("engine: job deadline exceeded")

// ErrJobPanicked is the typed failure of a job whose analysis panicked.
// The panic is recovered on the worker, the offending canonical hash is
// quarantined, and the pool keeps running.
var ErrJobPanicked = errors.New("engine: job panicked")

// ErrQuarantined is returned for jobs whose canonical hash was
// quarantined by an earlier panic (or seeded via Quarantine, e.g. from a
// resumed qssd journal): the job is refused without running.
var ErrQuarantined = errors.New("engine: net is quarantined")

// Config tunes the engine. The zero value is usable: GOMAXPROCS workers,
// default solver options, a 2×workers submission window, no deadline, no
// fault injection. Every engine's cache holds 4096 entries, LRU.
type Config struct {
	// Workers is the analysis worker-pool size (≤ 0 → GOMAXPROCS). The
	// pool is the pipeline's only parallelism: each job runs on one
	// worker goroutine, schedulability sweep included.
	Workers int
	// Core is the solver configuration applied to every job, except its
	// Trace and Ctx: each job replaces them with its own tracer and its
	// own context, which carries the JobTimeout deadline.
	Core core.Options
	// Timing, when enabled (Timing.MK set), appends a weakly-hard
	// timing-safety verdict — and optionally overload margins — to every
	// schedulable net's report (NetReport.Timing). Cached per canonical
	// hash, like every other analysis layer.
	Timing TimingOptions

	// SubmitWindow bounds how many AnalyzeEach/AnalyzeBatch jobs may be
	// submitted but not yet finished (≤ 0 → 2×Workers). The window is
	// the engine's backpressure: batch submission blocks once the window
	// is full, so queue memory for a million-net corpus stays O(window)
	// instead of O(corpus) and the queue_depth gauge is bounded by it.
	SubmitWindow int
	// JobTimeout is the per-job deadline (0 = none). A job past its
	// deadline is cancelled at the pipeline's next checkpoint and
	// returns its partial report with a typed ErrJobTimeout.
	JobTimeout time.Duration
	// FaultHook, when non-nil, runs at the start of every job with the
	// job's canonical hash. It may panic, sleep, or return an error,
	// which the engine treats exactly like an analysis failure — the
	// injection point for fault.EngineInjector in the robustness tests.
	// Never set in production.
	FaultHook func(ctx context.Context, hash string) error
}

// Engine is the long-running analysis service. Create with New, share
// freely across goroutines, and Close when done (Close waits for
// in-flight jobs). Methods must not be called from inside another job of
// the same engine — jobs occupy workers, so nesting can deadlock a full
// pool.
type Engine struct {
	cfg      Config
	workers  int
	cache    *cache
	counters stats.Counters
	tracer   *trace.Tracer // lifetime aggregate of every job's phases
	start    time.Time

	jobs      chan job
	wg        sync.WaitGroup
	closeOnce sync.Once

	// mu guards closed against concurrent submits: a send on the closed
	// jobs channel would panic, so Close flips the flag under the write
	// lock and every submit checks it under the read lock.
	mu     sync.RWMutex
	closed bool

	// quarantine maps canonical hashes poisoned by a recovered panic (or
	// seeded via Quarantine) to the reason; jobs for those hashes are
	// refused with ErrQuarantined.
	quarantine sync.Map // string -> string

	// onDoneMu serialises AnalyzeEach completion callbacks so callers
	// (e.g. qssd's journal writer) need no locking of their own.
	onDoneMu sync.Mutex
}

// JobStatus classifies how a job ended. It is the string the batch
// reports aggregate over.
type JobStatus string

const (
	// StatusOK: the analysis ran to completion (the report may still
	// carry a schedulability diagnosis — that is an answer, not a
	// failure).
	StatusOK JobStatus = "ok"
	// StatusTimeout: the job exceeded Config.JobTimeout; the report is
	// partial and Err wraps ErrJobTimeout.
	StatusTimeout JobStatus = "timeout"
	// StatusPanicked: the analysis panicked; the worker recovered, the
	// hash is quarantined, Err wraps ErrJobPanicked.
	StatusPanicked JobStatus = "panicked"
	// StatusQuarantined: the job was refused because its hash was
	// already quarantined; Err wraps ErrQuarantined.
	StatusQuarantined JobStatus = "quarantined"
	// StatusError: a residual job-level failure that is none of the
	// above (e.g. an injected fault).
	StatusError JobStatus = "error"
)

// Result pairs a report with its wall-clock analysis time, phase trace
// and failure classification. Elapsed and the trace durations are the
// only non-deterministic outputs, which is why they live outside
// NetReport (phase *counts* are deterministic and worker-count
// independent).
type Result struct {
	Report  *NetReport
	Elapsed time.Duration
	// Trace is the job's per-phase breakdown; its non-detail phases sum
	// to Elapsed modulo scheduling glue. Failure modes appear as
	// "engine/timeout" and "engine/panic" detail phases, and a refusal
	// as the "engine/quarantined" counter.
	Trace *trace.Report
	// Status classifies the job's ending; Err is the typed job-level
	// error for every status but StatusOK (errors.Is-testable against
	// ErrJobTimeout / ErrJobPanicked / ErrQuarantined). A timed-out or
	// panicked job still carries the partial Report built before the
	// failure.
	Status JobStatus
	Err    error
}

// New starts an engine with its worker pool.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:     cfg,
		workers: workers,
		tracer:  trace.New(),
		start:   time.Now(),
		jobs:    make(chan job),
	}
	e.cache = newCache(cacheCapacity, &e.counters, e.tracer)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// job is one unit of pool work. The worker calls done after run and
// after its own gauges are updated, so a caller woken by done never reads
// Stats that still count the finished job as busy.
type job struct {
	run, done func()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.counters.QueueDepth.Add(-1)
		e.counters.BusyWorkers.Add(1)
		t0 := time.Now()
		j.run()
		e.counters.BusyNanos.Add(time.Since(t0).Nanoseconds())
		e.counters.BusyWorkers.Add(-1)
		j.done()
	}
}

// Close shuts the pool down and waits for in-flight jobs. The cache stays
// readable; submitting new jobs after Close returns ErrEngineClosed.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.jobs)
		e.mu.Unlock()
	})
	e.wg.Wait()
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Stats snapshots the engine counters, including the lifetime per-phase
// trace aggregate across every job run so far.
func (e *Engine) Stats() stats.Snapshot {
	s := e.counters.Snapshot(e.workers, time.Since(e.start).Nanoseconds())
	s.Trace = e.tracer.Report()
	return s
}

// coreOpts is the per-job solver configuration: the job's tracer and the
// job's cancellation context.
func (e *Engine) coreOpts(ctx context.Context, tr *trace.Tracer) core.Options {
	opt := e.cfg.Core
	opt.Trace = tr
	opt.Ctx = ctx
	return opt
}

// SubmitWindow is the effective backpressure window: Config.SubmitWindow,
// or 2×Workers when unset. AnalyzeEach bounds its in-flight jobs by it;
// the HTTP service sizes its admission semaphore from it so a full
// window turns into a 429 instead of an unbounded queue.
func (e *Engine) SubmitWindow() int {
	if e.cfg.SubmitWindow > 0 {
		return e.cfg.SubmitWindow
	}
	return 2 * e.workers
}

// jobContext returns the job's context: deadline-bound with
// ErrJobTimeout as the cancellation cause when Config.JobTimeout is set.
func (e *Engine) jobContext() (context.Context, context.CancelFunc) {
	if e.cfg.JobTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeoutCause(context.Background(), e.cfg.JobTimeout, ErrJobTimeout)
}

// Quarantine marks a canonical hash as poisoned: subsequent jobs for it
// are refused with ErrQuarantined instead of running. The engine calls
// this itself after a recovered panic; qssd -resume seeds it from
// journalled panics.
func (e *Engine) Quarantine(hash, reason string) {
	e.quarantine.LoadOrStore(hash, reason)
}

// QuarantineReason reports whether hash is quarantined and, if so, why.
// The HTTP service fronts its admission check with this so a poisoned
// net is refused with its recorded reason instead of re-running.
func (e *Engine) QuarantineReason(hash string) (string, bool) {
	reason, ok := e.quarantine.Load(hash)
	if !ok {
		return "", false
	}
	return reason.(string), true
}

// QuarantinedHashes lists the quarantined canonical hashes, sorted.
func (e *Engine) QuarantinedHashes() []string {
	var out []string
	e.quarantine.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// submit schedules run on the pool, with done called once it has
// finished, or reports ErrEngineClosed.
func (e *Engine) submit(run, done func()) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.counters.ObserveQueueDepth(e.counters.QueueDepth.Add(1))
	e.jobs <- job{run: run, done: done}
	return nil
}

// run executes fn on the pool and waits for it.
func (e *Engine) run(fn func()) error {
	done := make(chan struct{})
	if err := e.submit(fn, func() { close(done) }); err != nil {
		return err
	}
	<-done
	return nil
}

// Analyze runs the full structural + behavioural analysis of one net on
// the pool and returns its deterministic report. After Close it returns
// ErrEngineClosed. Job-level failures (deadline, panic, quarantine)
// return the typed error alongside the partial report built before the
// failure.
func (e *Engine) Analyze(n *petri.Net) (*NetReport, error) {
	var res Result
	if err := e.run(func() { res = e.analyzeJob(n) }); err != nil {
		return nil, err
	}
	return res.Report, res.Err
}

// AnalyzeBatch analyses the nets concurrently across the pool and returns
// the results in input order. Submission is bounded by the engine's
// backpressure window (Config.SubmitWindow). After Close it returns
// ErrEngineClosed (jobs already submitted still finish). Per-job
// failures — timeouts, panics, quarantine refusals — do NOT fail the
// batch: they come back as typed Result.Err/Status entries while the
// healthy nets' reports stay byte-identical to a fault-free run.
func (e *Engine) AnalyzeBatch(nets []*petri.Net) ([]Result, error) {
	out := make([]Result, len(nets))
	err := e.AnalyzeEach(nets, func(i int, r Result) { out[i] = r })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyzeEach is the streaming form of AnalyzeBatch: onDone fires once
// per net as its job finishes (serialised — no caller locking needed —
// but in completion order, not input order; i is the net's input index).
// At most the submission window's worth of jobs is in flight, so corpus
// memory beyond the results the caller retains is O(window). qssd's
// crash-safe journal hangs off this callback.
func (e *Engine) AnalyzeEach(nets []*petri.Net, onDone func(i int, r Result)) error {
	window := e.SubmitWindow()
	slots := make(chan struct{}, window)
	var wg sync.WaitGroup
	for i, n := range nets {
		// Backpressure: block until an in-flight job frees a slot.
		slots <- struct{}{}
		i, n := i, n
		wg.Add(1)
		if err := e.submit(func() {
			r := e.analyzeJob(n)
			// Free the slot before the callback: journal writes and other
			// caller work must not throttle the pool.
			<-slots
			e.onDoneMu.Lock()
			defer e.onDoneMu.Unlock()
			onDone(i, r)
		}, wg.Done); err != nil {
			<-slots
			wg.Done()
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	return nil
}

// Synthesize runs the complete pipeline — schedule, task partition, code
// generation — through the cache and returns the bundle. Schedules come
// from the content-addressed schedule layer; the generated program is
// rebuilt from them (code generation is linear and name-dependent, so its
// output is not content-addressed). The job runs once, under Analyze's
// guard: canonical form, quarantine check, deadline, fault hook, and
// quarantine after a panic.
func (e *Engine) Synthesize(n *petri.Net) (syn *Synthesis, err error) {
	rerr := e.run(func() {
		e.counters.Jobs.Add(1)
		tr := trace.New()
		syn, _, _, err = guard(e, n, tr, func(ctx context.Context, cf *petri.CanonicalForm) (*Synthesis, error) {
			return e.synthesize(ctx, n, cf, tr)
		})
		e.tracer.Merge(tr)
	})
	if rerr != nil {
		return nil, rerr
	}
	return syn, err
}

// synthesize is Synthesize's job body.
func (e *Engine) synthesize(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer) (*Synthesis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// The schedule is reached as analyzeTraced reaches it, T-semiflows
	// first, so a net that has none fails here with its report's
	// schedule_error.
	sp := tr.Start("invariant/tsemiflows")
	tis, canonTIs, terr := e.tSemiflows(n, cf, tr)
	sp.End()
	sp = tr.Start("core/solve")
	sched, err := e.schedule(ctx, n, cf, canonTIs, tr)
	sp.End()
	if err != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if terr != nil {
		return nil, core.PartitionError(terr)
	}
	sp = tr.Start("core/tasks")
	tp := core.PartitionWith(n, tis)
	sp.End()
	sp = tr.Start("codegen/generate")
	prog, err := codegen.Generate(sched, tp)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Synthesis{Schedule: sched, Partition: tp, Program: prog}, nil
}

// ---- cache layers ----------------------------------------------------

// schedule returns n's valid schedule through the sched: layer, the
// engine's one QSS layer: Analyze and Synthesize both read it here, so a
// net's schedule, and its diagnosis when it has none, do not depend on
// which call came first. canonTIs are the job's T-semiflows as the
// tsemi: layer stores them, in twin order; nil when that lookup failed.
//
// A miss enumerates the distinct T-reductions on n, relabels them onto
// the canonical twin (petri.CanonicalNet) and sweeps them there. The
// solver explores allocations and firings in index order and may return
// any of several valid schedules; the twin is byte-identical for every
// member of the isomorphism class and the relabelled set is sorted by
// twin key, so the cached payload is a function of the canonical hash
// alone. Under KeepDuplicateReductions the twin is solved by core.Solve,
// the reference sweep, instead.
//
// Hit and miss alike rebuild the returned Schedule from the packed
// payload, which is what makes warm results byte-identical to cold ones.
// Failures are never cached or shared: the job that computed one gets a
// *solveError carrying its own enumeration's outcome.
func (e *Engine) schedule(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, canonTIs []invariant.TInvariant, tr *trace.Tracer) (*core.Schedule, error) {
	v, err := e.cache.getOrCompute("sched:"+cf.Hash, func() (any, error) {
		sp := tr.StartDetail("core/reduce")
		reds, rerr := core.EnumerateDistinctReductionsCtx(ctx, n, e.cfg.Core.MaxAllocations)
		sp.End()
		opt := e.coreOpts(ctx, tr)
		var s *core.Schedule
		var err error
		switch {
		case opt.KeepDuplicateReductions:
			s, err = core.Solve(n.CanonicalNet(), opt)
		case rerr != nil:
			err = rerr
		case canonTIs != nil:
			twin := n.CanonicalNet()
			s, err = core.SolveReductionsWithSemiflows(twin, mapReductionsToTwin(cf, twin, reds), canonTIs, opt)
		default:
			twin := n.CanonicalNet()
			s, err = core.SolveReductions(twin, mapReductionsToTwin(cf, twin, reds), opt)
		}
		if err != nil {
			return nil, &solveError{err: err, reds: reds, redsErr: rerr}
		}
		p := packSchedule(n.NumTransitions(), s.Cycles)
		tr.Add("cache/sched/bytes", int64(len(p.pos)))
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return rebuildSchedule(n, cf, v.(*schedPayload))
}

// solveError is a failed schedule computation. It unwraps to the failure
// and carries the distinct-reduction enumeration's outcome for the
// report: the reductions of the job's own net, or the enumeration's own
// error.
type solveError struct {
	err     error
	reds    []*core.Reduction
	redsErr error
}

func (e *solveError) Error() string { return e.err.Error() }
func (e *solveError) Unwrap() error { return e.err }

// rebuildSchedule maps canonical firing sequences into n's index space and
// reads each cycle's allocation off its sequence: a cycle fires exactly
// the transitions its reduction keeps, so at a choice whose place the
// reduction keeps exactly one alternative fires, and that is the choice;
// at a choice the reduction removed none fires, and the choice is n's
// first alternative, where the distinct-reduction search leaves it
// (core's TestCycleSupportDeterminesReduction).
//
// One pass over each cycle's positions, read in place, fills its
// sequence and choices through a transition→cluster table, and the
// schedule's sequences, choices, allocations and cycles each come from
// one backing array.
func rebuildSchedule(n *petri.Net, cf *petri.CanonicalForm, p *schedPayload) (*core.Schedule, error) {
	clusters := n.FreeChoiceSets()
	count, saturated := core.CountAllocationsSat(n)
	nC := len(clusters)
	clusterOf := make([]int, n.NumTransitions())
	for t := range clusterOf {
		clusterOf[t] = -1
	}
	for i, c := range clusters {
		for _, t := range c.Transitions {
			clusterOf[t] = i
		}
	}
	nCycles := len(p.ends)
	seqBuf := make([]petri.Transition, len(p.pos)/p.width)
	chosenBuf := make([]petri.Transition, nCycles*nC)
	allocs := make([]core.Allocation, nCycles)
	sched := &core.Schedule{
		Net:                      n,
		Cycles:                   make([]core.Cycle, nCycles),
		AllocationCount:          count,
		AllocationCountSaturated: saturated,
	}
	// fired[k] says whether the cycle fires an alternative of cluster k,
	// which is then chosen[k].
	fired := make([]bool, nC)
	start := 0
	for i, end := range p.ends {
		seq := seqBuf[start:end:end]
		chosen := chosenBuf[i*nC : (i+1)*nC : (i+1)*nC]
		for j := range seq {
			t := cf.TransAt[p.at(start+j)]
			seq[j] = t
			k := clusterOf[t]
			if k < 0 {
				continue
			}
			if !fired[k] {
				fired[k], chosen[k] = true, t
			} else if chosen[k] != t {
				return nil, fmt.Errorf("engine: cached cycle fires 2 alternatives of choice %q of net %q",
					n.PlaceName(clusters[k].Places[0]), n.Name())
			}
		}
		for k, c := range clusters {
			if !fired[k] {
				chosen[k] = c.Transitions[0]
			}
			fired[k] = false
		}
		allocs[i] = core.Allocation{Clusters: clusters, Chosen: chosen}
		sched.Cycles[i] = core.Cycle{Sequence: seq, Allocation: &allocs[i]}
		start = end
	}
	return sched, nil
}

// mapReductionsToTwin carries each distinct reduction over to the
// canonical twin: the allocation translates through the canonical
// permutation and the kept sets are relabelled (Reduction.Relabel), with
// no second run of the reduction algorithm. Sorting by the twin's kept
// transitions (Reduction.CompareKept) then makes the solver's input
// depend only on the isomorphism class.
//
// Enumerating directly on the twin would also work, but the lazy
// branching search's cost is sensitive to cluster index order, and the
// canonical order is the worse one. On perfbench's synth corpus (2,208
// valid nets per seed) the twin needs 179,416 Reduce calls against
// 89,108 on the declared nets for seed 1 (2.01x) and 178,045 against
// 90,325 for seed 2 (1.97x), or 1.94x and 1.73x the enumeration time
// (one serial run on a 2-CPU host). The twin is worse on 693 and 725
// nets, better on 232 and 234; one net goes from 24 calls to 235 (9.8x).
func mapReductionsToTwin(cf *petri.CanonicalForm, twin *petri.Net, reds []*core.Reduction) []*core.Reduction {
	clusters := twin.FreeChoiceSets()
	nC := len(clusters)
	// clusterOf[p] is the cluster of twin choice place p.
	clusterOf := make([]int, twin.NumPlaces())
	for i, c := range clusters {
		for _, p := range c.Places {
			clusterOf[p] = i
		}
	}
	chosenBuf := make([]petri.Transition, len(reds)*nC)
	allocs := make([]core.Allocation, len(reds))
	out := make([]*core.Reduction, len(reds))
	for i, r := range reds {
		chosen := chosenBuf[i*nC : (i+1)*nC : (i+1)*nC]
		for k, c := range clusters {
			chosen[k] = c.Transitions[0]
		}
		la := r.Allocation
		for k, cluster := range la.Clusters {
			chosen[clusterOf[cf.PlacePos[cluster.Places[0]]]] = petri.Transition(cf.TransPos[la.Chosen[k]])
		}
		allocs[i] = core.Allocation{Clusters: clusters, Chosen: chosen}
		out[i] = r.Relabel(twin, &allocs[i], cf.TransPos, cf.PlacePos)
	}
	// The reductions are distinct, so the order is total.
	slices.SortFunc(out, (*core.Reduction).CompareKept)
	return out
}

// tSemiflows returns the net's minimal T-semiflows through the tsemi:
// layer, once in the net's own order — what invariant.TInvariants returns
// on n, for the report and the task partition — and once as stored, in
// canonical order: what TInvariants returns on the canonical twin (the
// contract of invariant.RelabelTInvariants), so the twin's sweep takes
// them as they are. A miss runs Farkas on n itself.
func (e *Engine) tSemiflows(n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer) (local, canon []invariant.TInvariant, err error) {
	v, err := e.cache.getOrCompute("tsemi:"+cf.Hash, func() (any, error) {
		var err error
		if local, err = invariant.TInvariants(n, invariant.Options{MaxRows: e.cfg.Core.MaxRows, Trace: tr}); err != nil {
			return nil, err
		}
		return invariant.RelabelTInvariants(local, cf.TransPos), nil
	})
	if err != nil {
		return nil, nil, err
	}
	canon = v.([]invariant.TInvariant)
	if local == nil { // a hit: this call did not compute them
		local = invariant.RelabelTInvariants(canon, cf.TransAt)
	}
	return local, canon, nil
}

// ---- analysis --------------------------------------------------------

// ctxCause returns nil while ctx is live and an error wrapping
// context.Cause once it is done (for a deadline job, that cause is the
// typed ErrJobTimeout).
func ctxCause(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("engine: job cancelled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

// minimalReport identifies a net whose analysis never ran (or died
// early): enough for a journal entry and a quarantine record.
func minimalReport(n *petri.Net, cf *petri.CanonicalForm) *NetReport {
	return &NetReport{
		Name:        n.Name(),
		Hash:        cf.Hash,
		Places:      n.NumPlaces(),
		Transitions: n.NumTransitions(),
		Arcs:        n.NumArcs(),
	}
}

// analyzeJob runs one guarded analysis job on a worker goroutine and
// builds its Result: a job that never produced a report (refused, or
// failed before the body ran) reports what identifies the net.
func (e *Engine) analyzeJob(n *petri.Net) Result {
	e.counters.Jobs.Add(1)
	t0 := time.Now()
	tr := trace.New()
	rep, cf, status, err := guard(e, n, tr, func(ctx context.Context, cf *petri.CanonicalForm) (*NetReport, error) {
		return e.analyzeTraced(ctx, n, cf, tr)
	})
	switch {
	case rep != nil:
	case cf != nil:
		rep = minimalReport(n, cf)
	default: // canonicalisation panicked: there is no hash
		rep = &NetReport{}
		if n != nil {
			rep.Name = n.Name()
		}
	}
	res := Result{Report: rep, Elapsed: time.Since(t0), Trace: tr.Report(), Status: status, Err: err}
	e.tracer.MergeReport(res.Trace)
	return res
}

// guard runs a job body under the engine's job guard: canonicalise,
// refuse quarantined hashes, then run the body once under the job's
// deadline, after Config.FaultHook (tests only), with panics recovered.
// It returns the body's output (zero if the body never returned), the
// canonical form (nil if canonicalisation panicked), the job's status and
// its typed error. It never panics and never blocks past the deadline by
// more than one pipeline checkpoint.
func guard[T any](e *Engine, n *petri.Net, tr *trace.Tracer, body func(ctx context.Context, cf *petri.CanonicalForm) (T, error)) (out T, cf *petri.CanonicalForm, status JobStatus, err error) {
	t0 := time.Now()
	cf, err = e.canonical(n, tr)
	if err != nil {
		// Canonicalisation itself panicked: there is no hash to
		// quarantine, but the job still returns typed instead of killing
		// the worker.
		e.counters.Panics.Add(1)
		tr.Observe("engine/panic", time.Since(t0), true)
		return out, nil, StatusPanicked, err
	}
	if reason, ok := e.quarantine.Load(cf.Hash); ok {
		e.counters.QuarantineSkips.Add(1)
		tr.Add("engine/quarantined", 1)
		return out, cf, StatusQuarantined, fmt.Errorf("%w: %s (%s)", ErrQuarantined, cf.Hash, reason.(string))
	}

	t0 = time.Now()
	ctx, cancel := e.jobContext()
	out, err = func() (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
			}
		}()
		if hook := e.cfg.FaultHook; hook != nil {
			if err := hook(ctx, cf.Hash); err != nil {
				return out, err
			}
		}
		return body(ctx, cf)
	}()
	expired := ctx.Err() != nil
	cancel()
	switch {
	case errors.Is(err, ErrJobPanicked):
		// Quarantine the hash so one poisoned net cannot keep taking
		// workers down; the panic itself was recovered above.
		e.Quarantine(cf.Hash, err.Error())
		e.counters.Panics.Add(1)
		tr.Observe("engine/panic", time.Since(t0), true)
		return out, cf, StatusPanicked, err
	case err != nil && expired:
		// The job's own deadline fired: partial result, typed error.
		e.counters.Timeouts.Add(1)
		tr.Observe("engine/timeout", time.Since(t0), true)
		return out, cf, StatusTimeout, err
	case err != nil:
		return out, cf, StatusError, err
	}
	return out, cf, StatusOK, nil
}

// canonical computes the net's canonical form under the job's
// "petri/canonical" span, converting a canonicalisation panic into a
// typed error.
func (e *Engine) canonical(n *petri.Net, tr *trace.Tracer) (cf *petri.CanonicalForm, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: canonicalisation: %v", ErrJobPanicked, r)
		}
	}()
	sp := tr.Start("petri/canonical")
	cf = n.CanonicalForm()
	sp.End()
	return cf, nil
}

// analyzeTraced is the analysis body. The top-level spans below are
// sequential and cover every statement between the first and the last, so
// their totals account for the job's wall time (the qssd report checks
// that sum against elapsed time per net). Cancellation is checked at
// every stage boundary (and inside core's long loops via opt.Ctx); a
// cancelled job returns the report built so far plus the cause error.
func (e *Engine) analyzeTraced(ctx context.Context, n *petri.Net, cf *petri.CanonicalForm, tr *trace.Tracer) (*NetReport, error) {
	sp := tr.Start("petri/classify")
	rep := &NetReport{
		Name:        n.Name(),
		Hash:        cf.Hash,
		Places:      n.NumPlaces(),
		Transitions: n.NumTransitions(),
		Arcs:        n.NumArcs(),
		Class:       n.Classify(),
		FreeChoice:  n.IsFreeChoice(),
		Sources:     sortedNames(n, n.SourceTransitions()),
		Sinks:       sortedNames(n, n.SinkTransitions()),
		FreeChoices: len(n.FreeChoiceSets()),
	}
	sp.End()
	fail := func(stage string, err error) {
		rep.Errors = append(rep.Errors, stage+": "+err.Error())
	}
	if cerr := ctxCause(ctx); cerr != nil {
		return rep, cerr
	}

	// The T-semiflows are looked up once and handed down to the twin's
	// sweep and the task partition; the P-semiflows, enumerated on n, to
	// the structural bounds. A failed enumeration fails those stages too.
	sp = tr.Start("invariant/tsemiflows")
	tis, canonTIs, terr := e.tSemiflows(n, cf, tr)
	if terr != nil {
		fail("t-semiflows", terr)
	} else {
		rep.TSemiflows = len(tis)
		rep.Consistent = invariant.Consistent(n, tis)
	}
	sp.End()
	sp = tr.Start("invariant/psemiflows")
	pis, perr := invariant.PInvariants(n, invariant.Options{MaxRows: e.cfg.Core.MaxRows, Trace: tr})
	if perr != nil {
		fail("p-semiflows", perr)
	} else {
		rep.PSemiflows = len(pis)
		rep.Conservative = invariant.Conservative(n, pis)
	}
	sp.End()
	sp = tr.Start("invariant/bounds")
	if perr != nil {
		fail("structural-bounds", perr)
	} else {
		for p, b := range invariant.StructuralBounds(n, pis) {
			if b != invariant.Unbounded {
				if rep.StructuralBounds == nil {
					rep.StructuralBounds = map[string]int{}
				}
				rep.StructuralBounds[n.PlaceName(petri.Place(p))] = b
			}
		}
	}
	sp.End()
	if cerr := ctxCause(ctx); cerr != nil {
		return rep, cerr
	}

	if err := n.Validate(); err != nil || !rep.FreeChoice {
		if err != nil {
			rep.ScheduleError = err.Error()
		}
		return rep, nil
	}

	sp = tr.Start("core/solve")
	sched, err := e.schedule(ctx, n, cf, canonTIs, tr)
	sp.End()
	if err != nil {
		var serr *solveError
		if errors.As(err, &serr) && serr.redsErr == nil {
			rep.Reductions = reductionNames(n, serr.reds)
		}
		if cerr := ctxCause(ctx); cerr != nil {
			// The deadline fired mid-enumeration or mid-sweep: surface the
			// cancellation, not a bogus "not schedulable" verdict.
			return rep, cerr
		}
		if serr != nil && serr.redsErr != nil {
			fail("reductions", serr.redsErr)
		}
		rep.ScheduleError = err.Error()
		return rep, nil
	}
	rep.Schedulable = true
	rep.Allocations = sched.AllocationCount
	rep.AllocationsSaturated = sched.AllocationCountSaturated
	rep.Schedule = sched.Export()
	rep.Reductions = exportedReductions(rep.Schedule)
	sp = tr.Start("core/bounds")
	if bounds, err := sched.BufferBounds(); err != nil {
		fail("buffer-bounds", err)
	} else {
		rep.BufferBounds = map[string]int{}
		for p, b := range bounds {
			rep.BufferBounds[n.PlaceName(petri.Place(p))] = b
		}
	}
	sp.End()

	sp = tr.Start("core/tasks")
	var tp *core.TaskPartition
	if terr != nil {
		fail("tasks", core.PartitionError(terr))
	} else {
		tp = core.PartitionWith(n, tis)
		for _, task := range tp.Tasks {
			rep.Tasks = append(rep.Tasks, TaskReport{
				Name:        task.Name,
				Sources:     sortedNames(n, task.Sources),
				Transitions: sortedNames(n, task.Transitions),
			})
		}
		// Task order, like task names, must not depend on declaration
		// order (names are unique: one task per source group).
		sort.Slice(rep.Tasks, func(a, b int) bool { return rep.Tasks[a].Name < rep.Tasks[b].Name })
	}
	sp.End()

	if e.cfg.Timing.Enabled() && tp != nil {
		if cerr := ctxCause(ctx); cerr != nil {
			return rep, cerr
		}
		if trep, err := e.timingPass(n, cf, sched, tp, tr); err != nil {
			fail("timing", err)
		} else {
			rep.Timing = trep
		}
	}
	return rep, nil
}

// exportedReductions lists the report's reductions off its schedule: a
// cycle fires exactly the transitions its reduction keeps, so each
// cycle's Counts names, which are name-sorted, are its reduction's kept
// set.
func exportedReductions(ex *core.ScheduleExport) [][]string {
	kept := 0
	for _, c := range ex.Cycles {
		kept += len(c.Counts)
	}
	buf := make([]string, 0, kept)
	out := make([][]string, len(ex.Cycles))
	for i, c := range ex.Cycles {
		start := len(buf)
		for _, e := range c.Counts {
			buf = append(buf, e.Name)
		}
		out[i] = buf[start:len(buf):len(buf)]
	}
	return sortReductions(out)
}

// reductionNames renders the reductions' kept-transition sets as the
// report lists them: each set name-sorted, the list sorted and free of
// repeats (under KeepDuplicateReductions several cycles share one), so the
// report serialises identically for isomorphic nets regardless of
// declaration order.
func reductionNames(n *petri.Net, reds []*core.Reduction) [][]string {
	out := make([][]string, len(reds))
	for i, r := range reds {
		out[i] = sortedNames(n, r.KeptTransitions())
	}
	return sortReductions(out)
}

// sortReductions sorts name-sorted kept sets and drops repeats. Comparing
// names with strings.Compare takes one comparison per name where
// cmp.Compare takes two for equal ones; the order is the same.
func sortReductions(sets [][]string) [][]string {
	slices.SortFunc(sets, func(a, b []string) int { return slices.CompareFunc(a, b, strings.Compare) })
	return slices.CompactFunc(sets, slices.Equal)
}
