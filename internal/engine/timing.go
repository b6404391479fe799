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
// against the (m,k) constraint at the calibrated deadline,
// sim.DefaultDeadlineFactor x the fault-free worst response; optionally
// the overload margin (the harshest fault-injector intensity the
// constraint survives) is searched for the burst and overrun kinds at
// sim's per-kind ceilings. The workload has 32 events per source, and
// choices and injectors draw from seed 1. The zero value disables the
// pass.
type TimingOptions struct {
	// MK is the weakly-hard constraint; disabled (zero) turns the whole
	// pass off.
	MK timing.Constraint
	// Margin turns on the overload-margin search.
	Margin bool
}

// The timing pass's fixed workload: events per source, and the seed of
// choice resolution and of the margin injectors.
const (
	timingEventsPerSource = 32
	timingSeed            = 1
)

// Enabled reports whether the timing pass runs.
func (o TimingOptions) Enabled() bool { return o.MK.Enabled() }

// TimingReport is the per-net outcome of the timing pass, attached to
// NetReport.Timing. Like every other report field it is rebuilt from a
// canonical cached payload, hit and miss alike: each job gets its own
// deep copy of the stored report, so warm results marshal
// byte-identically to cold ones; the verdict and margins carry no
// net-local identifiers.
type TimingReport struct {
	// MK restates the constraint ("(m,k)"); Deadline is the per-event
	// budget calibrated from the fault-free run; EventsPerSource and Seed
	// restate the workload.
	MK              string `json:"mk"`
	Deadline        int64  `json:"deadline"`
	EventsPerSource int    `json:"events_per_source"`
	Seed            uint64 `json:"seed"`
	// Verdict is the nominal run's weakly-hard verdict.
	Verdict *timing.Verdict `json:"verdict"`
	// Margins, when the margin search ran, hold one graceful-degradation
	// frontier per overload kind: burst, then overrun.
	Margins []*sim.OverloadMargin `json:"margins,omitempty"`
}

// timingWorkload builds the canonical periodic workload: sources ordered
// by canonical position, source i firing timingEventsPerSource times with
// period 2i+3 from phase i. Isomorphic nets get corresponding streams.
func timingWorkload(n *petri.Net, cf *petri.CanonicalForm) []rtos.Event {
	sources := append([]petri.Transition(nil), n.SourceTransitions()...)
	sort.Slice(sources, func(a, b int) bool {
		return cf.TransPos[sources[a]] < cf.TransPos[sources[b]]
	})
	streams := make([][]rtos.Event, len(sources))
	for i, src := range sources {
		streams[i] = rtos.Periodic(src, int64(2*i+3), int64(i), timingEventsPerSource)
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

// timingPass runs the whole pass for one schedulable net through the
// timing: layer, one entry per net: a miss generates the program and
// runs the canonical workload once, fault-free, under the
// "timing/monitor" span, reads the calibrated deadline and the verdict
// off that run, then (when configured) searches each margin from it
// under "timing/margin". The engine's timing options are fixed for its
// lifetime, so the key carries none. The miss stores the report decoded
// from its own JSON, which is exactly what the JSON says (the margins'
// probe counters stay zero), and every job, hit or miss, gets a deep
// copy of it, so no report shares memory with the cache.
func (e *Engine) timingPass(n *petri.Net, cf *petri.CanonicalForm, sched *core.Schedule, tp *core.TaskPartition, tr *trace.Tracer) (*TimingReport, error) {
	opts := e.cfg.Timing
	v, err := e.cache.getOrCompute("timing:"+cf.Hash, func() (any, error) {
		sp := tr.Start("timing/monitor")
		trep, nom, err := timingVerdict(n, cf, sched, tp, opts.MK)
		sp.End()
		if err != nil {
			return nil, err
		}
		if opts.Margin {
			sp = tr.Start("timing/margin")
			defer sp.End()
			for _, kind := range []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun} {
				om, err := nom.SearchMargin(kind, trep.Deadline)
				if err != nil {
					return nil, err
				}
				tr.Add("timing/probes", int64(om.Result.Probes))
				tr.Add("timing/probe_stops", int64(om.ProbeStops))
				tr.Add("timing/probe_events", om.ProbeEvents)
				trep.Margins = append(trep.Margins, om)
			}
		}
		enc, err := json.Marshal(trep)
		if err != nil {
			return nil, err
		}
		tr.Add("cache/timing/bytes", int64(len(enc)))
		stored := &TimingReport{}
		if err := json.Unmarshal(enc, stored); err != nil {
			return nil, fmt.Errorf("engine: timing payload: %w", err)
		}
		return stored, nil
	})
	if err != nil {
		return nil, err
	}
	return cloneTimingReport(v.(*TimingReport)), nil
}

// cloneTimingReport returns a deep copy of r that shares no memory with
// it but its strings, nil exactly where r is nil. The verdicts, the
// violations, the margins and their results each come from one backing
// array.
func cloneTimingReport(r *TimingReport) *TimingReport {
	c := *r
	nVerdicts, nViolations := 0, 0
	countVerdict := func(v *timing.Verdict) {
		if v != nil {
			nVerdicts++
			if v.Violation != nil {
				nViolations++
			}
		}
	}
	countVerdict(r.Verdict)
	for _, om := range r.Margins {
		if om != nil && om.Result != nil {
			countVerdict(om.Result.Pass)
			countVerdict(om.Result.Fail)
		}
	}
	verdicts := make([]timing.Verdict, 0, nVerdicts)
	violations := make([]timing.Violation, 0, nViolations)
	copyVerdict := func(v *timing.Verdict) *timing.Verdict {
		if v == nil {
			return nil
		}
		verdicts = append(verdicts, *v)
		cv := &verdicts[len(verdicts)-1]
		if v.Violation != nil {
			violations = append(violations, *v.Violation)
			cv.Violation = &violations[len(violations)-1]
		}
		return cv
	}
	c.Verdict = copyVerdict(r.Verdict)
	if r.Margins != nil {
		margins := make([]sim.OverloadMargin, 0, len(r.Margins))
		results := make([]timing.MarginResult, 0, len(r.Margins))
		c.Margins = make([]*sim.OverloadMargin, len(r.Margins))
		for i, om := range r.Margins {
			if om == nil {
				continue
			}
			margins = append(margins, *om)
			cm := &margins[len(margins)-1]
			if om.Result != nil {
				results = append(results, *om.Result)
				res := &results[len(results)-1]
				res.Pass = copyVerdict(om.Result.Pass)
				res.Fail = copyVerdict(om.Result.Fail)
				cm.Result = res
			}
			c.Margins[i] = cm
		}
	}
	return &c
}

// timingVerdict generates the net's program, runs the canonical
// workload once, fault-free, and judges that run against the (m,k)
// constraint at the calibrated deadline. The run is returned for the
// margin searches, whose level 0 it is.
func timingVerdict(n *petri.Net, cf *petri.CanonicalForm, sched *core.Schedule, tp *core.TaskPartition, mk timing.Constraint) (*TimingReport, *sim.Nominal, error) {
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, nil, err
	}
	choices := newCanonResolver(n, cf, timingSeed)
	nom := sim.RunNominal(prog, timingWorkload(n, cf), rtos.DefaultCostModel(), sim.MarginConfig{
		MK:     mk,
		Seed:   timingSeed,
		Robust: sim.RobustConfig{CyclesPerTick: 1},
		Hooks:  func() sim.Hooks { return sim.Hooks{Resolver: choices.resolver()} },
	})
	deadline, err := nom.Deadline(sim.DefaultDeadlineFactor)
	if err != nil {
		return nil, nil, err
	}
	verdict, err := nom.Verdict(deadline)
	if err != nil {
		return nil, nil, err
	}
	return &TimingReport{
		MK:              mk.String(),
		Deadline:        deadline,
		EventsPerSource: timingEventsPerSource,
		Seed:            timingSeed,
		Verdict:         verdict,
	}, nom, nil
}
