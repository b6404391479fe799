// Command phasegate is the phase-level performance regression gate: it
// distils the engine-lifetime phase trace out of a qssd report into a
// small committed baseline (-write), and on later runs compares a fresh
// report against that baseline, failing when any phase's total time has
// regressed beyond the allowed factor.
//
// Usage:
//
//	qssd -gen 20 -gen-seed 1 -workers 1 -mk 9,10 -margin -o run1.json   # and run2, run3
//	phasegate -report run1.json -report run2.json -report run3.json -baseline BENCH_phases.json -write   # refresh
//	phasegate -report run1.json -report run2.json -report run3.json -baseline BENCH_phases.json          # gate
//
// Phase totals are wall-clock spans summed over the engine's worker
// goroutines, so the corpus runs with one worker: on a multi-core host,
// contention between workers inflates every sum. -report may be given
// more than once: each phase's time is then the minimum over the runs,
// the one least disturbed by other load on the host. The corpus is
// deterministic, so runs whose phase counts differ are an error.
//
// The gate compares both total milliseconds and invocation counts per
// phase. Counts are deterministic for a fixed corpus, so the count gate
// (-max-count-regress) is tight: it catches algorithmic regressions —
// e.g. the distinct-reduction search silently degrading so duplicate
// T-reductions are checked again — that a host-relative time factor could
// absorb, and it applies to every baseline phase: a detail phase whose
// total sits under -floor-ms (core/cycle, one short search per distinct
// reduction) still has its count gated. Only the time comparison
// honours the floor — sub-millisecond totals are dominated by timer
// noise — and the default time factor of 2 leaves room for host-speed
// differences while still catching the order-of-magnitude slips the
// trace exists to expose. A phase the run records but the baseline
// lacks (linalg/bigint, say) fails the gate too. Plain JSON comparison,
// no external dependencies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"fcpn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "phasegate:", err)
		os.Exit(1)
	}
}

// qssdReport is the slice of the qssd JSON document the gate needs: the
// host's parallelism, the toolchain and the engine-lifetime trace.
type qssdReport struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Stats      struct {
		Trace *trace.Report `json:"trace"`
	} `json:"stats"`
}

// baseline is the committed BENCH_phases.json document.
type baseline struct {
	// GoMaxProcs, NumCPU and GoVersion record the host and toolchain the
	// baseline was taken with, for reading the numbers; the gate itself
	// is host-relative only through the regression factor.
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	GoVersion  string       `json:"go_version"`
	Phases     []phaseEntry `json:"phases"`
}

type phaseEntry struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	Detail  bool    `json:"detail,omitempty"`
}

// reportPaths collects every -report flag.
type reportPaths []string

func (r *reportPaths) String() string     { return strings.Join(*r, ",") }
func (r *reportPaths) Set(v string) error { *r = append(*r, v); return nil }

// run is the testable core of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("phasegate", flag.ContinueOnError)
	var reports reportPaths
	fs.Var(&reports, "report", "qssd JSON report of one run of the corpus; repeat to gate the best of several runs (required)")
	basePath := fs.String("baseline", "BENCH_phases.json", "committed phase baseline")
	write := fs.Bool("write", false, "write/refresh the baseline from -report instead of gating")
	factor := fs.Float64("max-regress", 2.0, "fail when a phase exceeds baseline total by this factor")
	countFactor := fs.Float64("max-count-regress", 1.25, "fail when a phase's count exceeds baseline by this factor (0 disables)")
	floorMS := fs.Float64("floor-ms", 1.0, "ignore phases whose baseline total is below this many ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(reports) == 0 {
		return fmt.Errorf("-report is required")
	}
	current, err := bestOf(reports)
	if err != nil {
		return err
	}

	if *write {
		f, err := os.Create(*basePath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(current); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %d phases, best of %d run(s) (%s)\n",
			*basePath, len(current.Phases), len(reports), current.host())
		return nil
	}

	var base baseline
	if err := readJSON(*basePath, &base); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "baseline: %s; this run: %s\n", base.host(), current.host())
	cur := make(map[string]phaseEntry, len(current.Phases))
	for _, p := range current.Phases {
		cur[p.Name] = p
	}
	inBase := make(map[string]bool, len(base.Phases))

	// The time gate only applies above the floor — sub-millisecond phases
	// are timer noise. Counts are deterministic for a fixed corpus, so the
	// count gate applies to every baseline phase regardless of floor: a
	// detail phase like core/cycle can hold well under a millisecond yet
	// its count is exactly the signal (one cycle search per distinct
	// T-reduction) the gate exists to pin.
	var failures []string
	checked := 0
	for _, b := range base.Phases {
		inBase[b.Name] = true
		gateTime := b.TotalMS >= *floorMS
		gateCount := *countFactor > 0
		if !gateTime && !gateCount {
			continue
		}
		checked++
		c, ok := cur[b.Name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("phase %s: in baseline (%.2f ms ×%d) but absent from this run", b.Name, b.TotalMS, b.Count))
			continue
		}
		status := "ok"
		if gateTime {
			limit := b.TotalMS * *factor
			if c.TotalMS > limit {
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("phase %s: %.2f ms vs baseline %.2f ms (limit %.2f ms at %gx)",
						b.Name, c.TotalMS, b.TotalMS, limit, *factor))
			}
		}
		if gateCount && float64(c.Count) > float64(b.Count)**countFactor {
			status = "FAIL"
			failures = append(failures,
				fmt.Sprintf("phase %s: count %d vs baseline %d (limit %.0f at %gx)",
					b.Name, c.Count, b.Count, float64(b.Count)**countFactor, *countFactor))
		}
		fmt.Fprintf(stdout, "%-28s %10.2f ms ×%-6d  baseline %10.2f ms ×%-6d  %s\n",
			b.Name, c.TotalMS, c.Count, b.TotalMS, b.Count, status)
	}
	// A phase the baseline lacks is work the baseline never saw, such as
	// Farkas runs falling back to big.Int; no factor can bound it.
	for _, c := range current.Phases {
		if !inBase[c.Name] {
			failures = append(failures,
				fmt.Sprintf("phase %s: in this run (%.2f ms ×%d) but absent from baseline", c.Name, c.TotalMS, c.Count))
		}
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s has no phases above the %.1f ms floor and the count gate is disabled", *basePath, *floorMS)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "regression:", f)
		}
		return fmt.Errorf("%d phase(s) regressed beyond the allowed factors", len(failures))
	}
	fmt.Fprintf(stdout, "phase gate passed: %d phase(s) within %gx time / %gx count of baseline\n",
		checked, *factor, *countFactor)
	return nil
}

// bestOf distils each report and keeps every phase's minimum total time
// over the runs. The corpus is deterministic, so every run must record
// the same phases with the same counts.
func bestOf(paths []string) (baseline, error) {
	var best baseline
	for i, path := range paths {
		var rep qssdReport
		if err := readJSON(path, &rep); err != nil {
			return baseline{}, err
		}
		if rep.Stats.Trace == nil || len(rep.Stats.Trace.Phases) == 0 {
			return baseline{}, fmt.Errorf("%s: report has no stats.trace block (old qssd?)", path)
		}
		cur := distill(&rep)
		if i == 0 {
			best = cur
			continue
		}
		if len(cur.Phases) != len(best.Phases) {
			return baseline{}, fmt.Errorf("%s records %d phases but %s records %d: phase counts differ between runs of one corpus",
				path, len(cur.Phases), paths[0], len(best.Phases))
		}
		for j, p := range cur.Phases {
			b := &best.Phases[j]
			if p.Name != b.Name || p.Count != b.Count {
				return baseline{}, fmt.Errorf("%s records %s ×%d but %s records %s ×%d: phase counts differ between runs of one corpus",
					path, p.Name, p.Count, paths[0], b.Name, b.Count)
			}
			b.TotalMS = math.Min(b.TotalMS, p.TotalMS)
		}
	}
	return best, nil
}

// host describes where the numbers were taken.
func (b baseline) host() string {
	return fmt.Sprintf("gomaxprocs %d, num_cpu %d, %s", b.GoMaxProcs, b.NumCPU, b.GoVersion)
}

func distill(rep *qssdReport) baseline {
	b := baseline{GoMaxProcs: rep.GoMaxProcs, NumCPU: rep.NumCPU, GoVersion: rep.GoVersion}
	for _, p := range rep.Stats.Trace.Phases {
		b.Phases = append(b.Phases, phaseEntry{
			Name:    p.Name,
			Count:   p.Count,
			TotalMS: p.TotalMS,
			Detail:  p.Detail,
		})
	}
	return b
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
