package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fakeReport writes a minimal qssd document: only the fields the gate
// reads. Each extra name adds one more detail phase.
func fakeReport(t *testing.T, dir, name string, solveMS, checkMS float64, checkCount int, extra ...string) string {
	t.Helper()
	var more string
	for _, e := range extra {
		more += `,
        {"phase": "` + e + `", "count": 1, "total_ms": 0.1, "detail": true}`
	}
	doc := `{
  "gomaxprocs": 1,
  "num_cpu": 2,
  "go_version": "go1.test",
  "stats": {
    "trace": {
      "phases": [
        {"phase": "core/solve", "count": 20, "total_ms": ` + strconv.FormatFloat(solveMS, 'f', -1, 64) + `},
        {"phase": "core/check", "count": ` + strconv.Itoa(checkCount) + `, "total_ms": ` + strconv.FormatFloat(checkMS, 'f', -1, 64) + `, "detail": true},
        {"phase": "petri/classify", "count": 20, "total_ms": 0.3}` + more + `
      ]
    }
  }
}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPhaseGatePassAndFail(t *testing.T) {
	dir := t.TempDir()
	base := fakeReport(t, dir, "base.json", 100, 80, 110)
	baseline := filepath.Join(dir, "BENCH_phases.json")

	var buf bytes.Buffer
	if err := run([]string{"-report", base, "-baseline", baseline, "-write"}, &buf); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// The baseline records the host and toolchain it was taken with.
	written, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"gomaxprocs": 1`, `"num_cpu": 2`, `"go_version": "go1.test"`} {
		if !strings.Contains(string(written), want) {
			t.Fatalf("baseline lacks %s:\n%s", want, written)
		}
	}

	// Same numbers: must pass.
	buf.Reset()
	if err := run([]string{"-report", base, "-baseline", baseline}, &buf); err != nil {
		t.Fatalf("self-compare must pass: %v\n%s", err, buf.String())
	}

	// 3x regression on core/solve: must fail at the default 2x factor.
	slow := fakeReport(t, dir, "slow.json", 300, 80, 110)
	buf.Reset()
	if err := run([]string{"-report", slow, "-baseline", baseline}, &buf); err == nil {
		t.Fatalf("3x regression must fail the gate:\n%s", buf.String())
	}

	// Best of several runs: the same slow run next to a fast one passes,
	// since each phase is gated on its fastest run.
	buf.Reset()
	if err := run([]string{"-report", base, "-report", slow, "-baseline", baseline}, &buf); err != nil {
		t.Fatalf("best of a slow and a fast run must pass: %v\n%s", err, buf.String())
	}
	// Runs of one corpus whose counts differ are an error, even when each
	// run alone would pass.
	fewer := fakeReport(t, dir, "fewer.json", 100, 80, 100)
	buf.Reset()
	if err := run([]string{"-report", base, "-report", fewer, "-baseline", baseline}, &buf); err == nil ||
		!strings.Contains(err.Error(), "counts differ") {
		t.Fatalf("reports with differing counts must be an error, got %v\n%s", err, buf.String())
	}

	// A phase the baseline lacks (a big.Int fallback the baseline never
	// saw) fails the gate, whatever its time and count.
	extra := fakeReport(t, dir, "extra.json", 100, 80, 110, "linalg/bigint")
	buf.Reset()
	if err := run([]string{"-report", extra, "-baseline", baseline}, &buf); err == nil {
		t.Fatalf("a phase absent from the baseline must fail the gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "linalg/bigint: in this run") {
		t.Fatalf("gate output does not name the new phase:\n%s", buf.String())
	}

	// Count regression at unchanged time: core/check jumping 110 → 580
	// (the dedup silently disabled) must fail even though the time factor
	// would pass it on a faster host.
	uncollapsed := fakeReport(t, dir, "uncollapsed.json", 100, 80, 580)
	buf.Reset()
	if err := run([]string{"-report", uncollapsed, "-baseline", baseline}, &buf); err == nil {
		t.Fatalf("count regression must fail the gate:\n%s", buf.String())
	}
	// ...and -max-count-regress=0 disables exactly that gate.
	buf.Reset()
	if err := run([]string{"-report", uncollapsed, "-baseline", baseline, "-max-count-regress", "0"}, &buf); err != nil {
		t.Fatalf("count gate disabled must pass: %v\n%s", err, buf.String())
	}

	// A TIME regression confined to a sub-floor phase must not gate: with
	// the count gate disabled, a floor above every phase leaves nothing to
	// check and is rejected instead of passing vacuously.
	buf.Reset()
	if err := run([]string{"-report", base, "-baseline", baseline, "-floor-ms", "1000", "-max-count-regress", "0"}, &buf); err == nil {
		t.Fatal("a floor above every phase with the count gate off must be an error, not a pass")
	}
	// But a COUNT regression in a sub-floor phase still gates: the floor
	// only silences the noisy time comparison, counts are deterministic.
	// petri/classify holds 0.3 ms ×20 in the baseline; the same report
	// compared under a floor above everything must pass on counts alone...
	buf.Reset()
	if err := run([]string{"-report", base, "-baseline", baseline, "-floor-ms", "1000"}, &buf); err != nil {
		t.Fatalf("count-only gating must pass on identical counts: %v\n%s", err, buf.String())
	}
	// ...and a count jump must fail even when every phase sits under the
	// floor — the floor never exempts a count regression.
	countOnly := fakeReport(t, dir, "countonly.json", 100, 0.4, 580)
	buf.Reset()
	if err := run([]string{"-report", countOnly, "-baseline", baseline, "-floor-ms", "1000"}, &buf); err == nil {
		t.Fatalf("sub-floor count regression must fail the gate:\n%s", buf.String())
	}
}

func TestPhaseGateMissingTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, []byte(`{"stats":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-report", path, "-baseline", filepath.Join(dir, "b.json"), "-write"}, &buf); err == nil {
		t.Fatal("report without a trace block must be rejected")
	}
}
