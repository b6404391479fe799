package engine

import (
	"encoding/json"
	"fmt"
	"sort"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
	"fcpn/internal/trace"
)

// TimingOptions configures the engine's weakly-hard timing-safety pass:
// every schedulable net's synthesised program is driven against a
// canonical periodic workload and its deadline hit/miss stream checked
// against the (m,k) constraint; optionally the overload margin (the
// harshest fault-injector intensity the constraint survives) is searched
// per overload kind. The zero value disables the pass.
type TimingOptions struct {
	// MK is the weakly-hard constraint; disabled (zero) turns the whole
	// pass off.
	MK timing.Constraint
	// Deadline is the per-event response budget in cycles; 0 calibrates
	// per net to sim.DefaultDeadlineFactor x the fault-free worst
	// response.
	Deadline int64
	// EventsPerSource sizes the synthetic workload (default 32): source
	// i (in canonical order) emits that many events with period 2i+3 and
	// phase i, mirroring qss -verify-bounds.
	EventsPerSource int
	// Seed drives choice resolution and the margin injectors (default 1).
	Seed uint64
	// Margin turns on the overload-margin search over MarginKinds
	// (default burst and overrun).
	Margin        bool
	MarginKinds   []sim.OverloadKind
	MarginCeiling int
}

// Enabled reports whether the timing pass runs.
func (o TimingOptions) Enabled() bool { return o.MK.Enabled() }

// normalized applies the documented defaults, so cache keys built from
// the options are stable however the caller spelled them.
func (o TimingOptions) normalized() TimingOptions {
	if o.EventsPerSource <= 0 {
		o.EventsPerSource = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Margin && len(o.MarginKinds) == 0 {
		o.MarginKinds = []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun}
	}
	return o
}

// TimingReport is the per-net outcome of the timing pass, attached to
// NetReport.Timing. Like every other report field it is decoded from a
// canonical cached payload, hit and miss alike, so warm results marshal
// byte-identically to cold ones; the verdict and margins carry no
// net-local identifiers.
type TimingReport struct {
	// MK restates the constraint ("(m,k)"); Deadline is the per-event
	// budget actually used (configured, or calibrated from the
	// fault-free run); EventsPerSource and Seed restate the workload.
	MK              string `json:"mk"`
	Deadline        int64  `json:"deadline"`
	EventsPerSource int    `json:"events_per_source"`
	Seed            uint64 `json:"seed"`
	// Verdict is the nominal run's weakly-hard verdict.
	Verdict *timing.Verdict `json:"verdict"`
	// Margins, when the margin search ran, hold one graceful-degradation
	// frontier per overload kind, in MarginKinds order.
	Margins []*sim.OverloadMargin `json:"margins,omitempty"`
}

// timingCacheVersion tags the timing layer's payload format (JSON of
// TimingReport / sim.OverloadMargin). Part of the key, like schedKey.
const timingCacheVersion = 1

// timingParams renders the option fields that shape a verdict, for keys.
func timingParams(o TimingOptions) string {
	return fmt.Sprintf("%d-%d:d%d:e%d:s%d", o.MK.M, o.MK.K, o.Deadline, o.EventsPerSource, o.Seed)
}

// timingVerdictKey is the cache key of a net's nominal timing verdict.
func timingVerdictKey(hash string, o TimingOptions) string {
	return fmt.Sprintf("timing:v%d:%s:%s", timingCacheVersion, timingParams(o), hash)
}

// timingMarginKey is the cache key of one overload kind's margin search.
func timingMarginKey(hash string, o TimingOptions, kind sim.OverloadKind) string {
	return fmt.Sprintf("timing:v%d:margin:%s:c%d:%s:%s", timingCacheVersion, kind, o.MarginCeiling, timingParams(o), hash)
}

// timingWorkload builds the canonical periodic workload: sources ordered
// by canonical position, source i firing EventsPerSource times with
// period 2i+3 from phase i. Isomorphic nets get corresponding streams.
func timingWorkload(n *petri.Net, cf *petri.CanonicalForm, o TimingOptions) []rtos.Event {
	sources := append([]petri.Transition(nil), n.SourceTransitions()...)
	sort.Slice(sources, func(a, b int) bool {
		return cf.TransPos[sources[a]] < cf.TransPos[sources[b]]
	})
	streams := make([][]rtos.Event, len(sources))
	for i, src := range sources {
		streams[i] = rtos.Periodic(src, int64(2*i+3), int64(i), o.EventsPerSource)
	}
	return rtos.Merge(streams...)
}

// canonResolver resolves choices as a pure function of (canonical place
// position, occurrence index, seed): the target is drawn from the
// place's consumers ordered by canonical transition position, then
// located in the alternatives the interpreter offers. Isomorphic nets
// therefore resolve correspondingly, which is what lets the timing
// layer's cached verdicts be a function of the canonical structure alone
// (sim.DecisionStream hashes net-local indices and would not be).
//
// The draws depend on nothing a run does, so a job computes each
// (place, occurrence) target once into a table, and every run of the
// job, each with its own occurrence counters, reads it.
type canonResolver struct {
	n    *petri.Net
	cf   *petri.CanonicalForm
	seed uint64
	// order[p] is p's consumers in canonical order, targets[p][k] the
	// target of p's k-th occurrence; both grow on demand.
	order   [][]petri.Transition
	targets [][]petri.Transition
}

func newCanonResolver(n *petri.Net, cf *petri.CanonicalForm, seed uint64) *canonResolver {
	return &canonResolver{
		n:       n,
		cf:      cf,
		seed:    seed,
		order:   make([][]petri.Transition, n.NumPlaces()),
		targets: make([][]petri.Transition, n.NumPlaces()),
	}
}

// resolver returns a resolver for one run, starting every place at its
// first occurrence.
func (cr *canonResolver) resolver() codegen.ChoiceResolver {
	occ := make([]int, cr.n.NumPlaces())
	return func(p petri.Place, alts []petri.Transition) int {
		k := occ[p]
		occ[p] = k + 1
		if k >= len(cr.targets[p]) {
			cr.extend(p, k)
		}
		target := cr.targets[p][k]
		for i, t := range alts {
			if t == target {
				return i
			}
		}
		return -1
	}
}

// extend draws p's targets up to occurrence k at least, doubling the
// table so it grows in O(log k) steps.
func (cr *canonResolver) extend(p petri.Place, k int) {
	ts := cr.order[p]
	if ts == nil {
		cons := cr.n.Consumers(p)
		ts = make([]petri.Transition, len(cons))
		for i, c := range cons {
			ts[i] = c.Transition
		}
		sort.Slice(ts, func(a, b int) bool { return cr.cf.TransPos[ts[a]] < cr.cf.TransPos[ts[b]] })
		cr.order[p] = ts
	}
	targets := cr.targets[p]
	for occ, last := len(targets), max(k, 2*len(targets)); occ <= last; occ++ {
		h := cr.seed ^ (uint64(cr.cf.PlacePos[p])+1)*0x9E3779B97F4A7C15 ^ (uint64(occ)+1)*0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		targets = append(targets, ts[h%uint64(len(ts))])
	}
	cr.targets[p] = targets
}

// timingPass runs the whole pass for one schedulable net: nominal
// verdict under the "timing/monitor" span, then (when configured) the
// margin searches under "timing/margin". Both go through the cache; the
// report is decoded from the stored payload on hit and miss alike.
func (e *Engine) timingPass(n *petri.Net, cf *petri.CanonicalForm, sched *core.Schedule, tp *core.TaskPartition, tr *trace.Tracer) (*TimingReport, error) {
	opts := e.cfg.Timing.normalized()

	// The nominal run is only needed on cache misses; memoise it, and
	// the program it runs, per job so a verdict miss and several margin
	// misses simulate the fault-free workload once.
	var nominal *sim.Nominal
	getNominal := func() (*sim.Nominal, error) {
		if nominal != nil {
			return nominal, nil
		}
		prog, err := codegen.Generate(sched, tp)
		if err != nil {
			return nil, err
		}
		choices := newCanonResolver(n, cf, opts.Seed)
		nominal = sim.RunNominal(prog, timingWorkload(n, cf, opts), rtos.DefaultCostModel(), sim.MarginConfig{
			MK:      opts.MK,
			Seed:    opts.Seed,
			Ceiling: opts.MarginCeiling,
			Robust:  sim.RobustConfig{CyclesPerTick: 1},
			Hooks:   func() sim.Hooks { return sim.Hooks{Resolver: choices.resolver()} },
		})
		return nominal, nil
	}

	sp := tr.Start("timing/monitor")
	v, err := e.cache.getOrCompute(timingVerdictKey(cf.Hash, opts), func() (any, error) {
		nom, err := getNominal()
		if err != nil {
			return nil, err
		}
		deadline := opts.Deadline
		if deadline == 0 {
			if deadline, err = nom.Deadline(sim.DefaultDeadlineFactor); err != nil {
				return nil, err
			}
		}
		verdict, err := nom.Verdict(deadline)
		if err != nil {
			return nil, err
		}
		enc, err := json.Marshal(&TimingReport{
			MK:              opts.MK.String(),
			Deadline:        deadline,
			EventsPerSource: opts.EventsPerSource,
			Seed:            opts.Seed,
			Verdict:         verdict,
		})
		if err != nil {
			return nil, err
		}
		tr.Add("cache/timing/bytes", int64(len(enc)))
		return enc, nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	trep := &TimingReport{}
	if err := json.Unmarshal(v.([]byte), trep); err != nil {
		return nil, fmt.Errorf("engine: timing payload: %w", err)
	}

	if !opts.Margin {
		return trep, nil
	}
	sp = tr.Start("timing/margin")
	defer sp.End()
	for _, kind := range opts.MarginKinds {
		kind := kind
		v, err := e.cache.getOrCompute(timingMarginKey(cf.Hash, opts, kind), func() (any, error) {
			nom, err := getNominal()
			if err != nil {
				return nil, err
			}
			om, err := nom.SearchMargin(kind, trep.Deadline)
			if err != nil {
				return nil, err
			}
			tr.Add("timing/probes", int64(om.Result.Probes))
			tr.Add("timing/probe_stops", int64(om.ProbeStops))
			tr.Add("timing/probe_events", om.ProbeEvents)
			return json.Marshal(om)
		})
		if err != nil {
			return nil, err
		}
		om := &sim.OverloadMargin{}
		if err := json.Unmarshal(v.([]byte), om); err != nil {
			return nil, fmt.Errorf("engine: margin payload: %w", err)
		}
		trep.Margins = append(trep.Margins, om)
	}
	return trep, nil
}
