package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

func timingConfig(workers int) Config {
	return Config{
		Workers: workers,
		Timing: TimingOptions{
			MK:     timing.Constraint{M: 9, K: 10},
			Margin: true,
		},
	}
}

func timingJSON(t *testing.T, rep *NetReport) string {
	t.Helper()
	if rep.Timing == nil {
		return ""
	}
	b, err := json.Marshal(rep.Timing)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEngineTimingDeterminism is the PR's acceptance criterion at the
// engine layer: timing verdicts and overload margins are byte-identical
// between cold run, warm-cache run, and workers=1 vs a wide pool.
func TestEngineTimingDeterminism(t *testing.T) {
	var nets []*petri.Net
	nets = append(nets, figures.Figure4(), figures.Figure5())
	for seed := uint64(0); seed < 6; seed++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	serial := New(timingConfig(1))
	defer serial.Close()
	wide := New(timingConfig(wideWorkers()))
	defer wide.Close()

	for _, n := range nets {
		cold := reportJSON(t, analyze(t, serial, n))
		warm := reportJSON(t, analyze(t, serial, n))
		if cold != warm {
			t.Fatalf("net %q: warm timing run differs from cold:\n%s\nvs\n%s", n.Name(), warm, cold)
		}
		wideCold := reportJSON(t, analyze(t, wide, n))
		if wideCold != cold {
			t.Fatalf("net %q: workers=%d timing differs from workers=1:\n%s\nvs\n%s",
				n.Name(), wide.Workers(), wideCold, cold)
		}
	}
}

// TestEngineTimingIsomorphismInvariance: two isomorphic nets analysed by
// two FRESH engines (no cache sharing possible) must produce identical
// timing reports — the canonical workload and canonical choice resolver
// make the verdict a function of the structure, not of declaration order.
func TestEngineTimingIsomorphismInvariance(t *testing.T) {
	// Figure-4 shape (source, free choice, two branch paths) declared in
	// two different orders with different names.
	twinA := func() *petri.Net {
		b := petri.NewBuilder("twin_a")
		t1 := b.Transition("a_in")
		t2 := b.Transition("a_left")
		t3 := b.Transition("a_right")
		t4 := b.Transition("a_out_l")
		t5 := b.Transition("a_out_r")
		p1 := b.Place("a_choice")
		p2 := b.Place("a_bufl")
		p3 := b.Place("a_bufr")
		b.ArcTP(t1, p1)
		b.Arc(p1, t2)
		b.Arc(p1, t3)
		b.Chain(t2, p2, t4)
		b.Chain(t3, p3, t5)
		return b.Build()
	}
	twinB := func() *petri.Net {
		b := petri.NewBuilder("twin_b")
		// Reversed declaration order: every local index differs from twinA.
		t5 := b.Transition("b_out_r")
		t4 := b.Transition("b_out_l")
		t3 := b.Transition("b_right")
		t2 := b.Transition("b_left")
		t1 := b.Transition("b_in")
		p3 := b.Place("b_bufr")
		p2 := b.Place("b_bufl")
		p1 := b.Place("b_choice")
		b.ArcTP(t1, p1)
		b.Arc(p1, t2)
		b.Arc(p1, t3)
		b.Chain(t2, p2, t4)
		b.Chain(t3, p3, t5)
		return b.Build()
	}

	ea := New(timingConfig(1))
	defer ea.Close()
	eb := New(timingConfig(1))
	defer eb.Close()
	ra := analyze(t, ea, twinA())
	rb := analyze(t, eb, twinB())
	if ra.Hash != rb.Hash {
		t.Fatalf("twins are not isomorphic: %s vs %s", ra.Hash, rb.Hash)
	}
	ja, jb := timingJSON(t, ra), timingJSON(t, rb)
	if ja == "" || ja != jb {
		t.Fatalf("cold timing reports differ across isomorphic nets:\n%s\nvs\n%s", ja, jb)
	}
}

// TestEngineTimingReportShape checks the concrete fields: calibrated
// deadline, satisfied nominal verdict, one margin per configured kind
// with a non-negative level.
func TestEngineTimingReportShape(t *testing.T) {
	e := New(timingConfig(2))
	defer e.Close()
	rep := analyze(t, e, figures.Figure4())
	tr := rep.Timing
	if tr == nil || tr.Verdict == nil {
		t.Fatalf("no timing report: %+v", tr)
	}
	if tr.MK != "(9,10)" || tr.Deadline <= 0 || tr.EventsPerSource != 32 || tr.Seed != 1 {
		t.Fatalf("timing params = %+v", tr)
	}
	if !tr.Verdict.Satisfied {
		t.Fatalf("nominal verdict must pass under the calibrated deadline: %s", tr.Verdict)
	}
	if len(tr.Margins) != 2 || tr.Margins[0].Kind != sim.OverloadBurst.String() ||
		tr.Margins[1].Kind != sim.OverloadOverrun.String() {
		t.Fatalf("margins = %+v", tr.Margins)
	}
	for _, om := range tr.Margins {
		if om.Result == nil || om.Result.Level < 0 {
			t.Fatalf("margin %s did not produce a finite non-negative level: %+v", om.Kind, om.Result)
		}
		if om.Deadline != tr.Deadline {
			t.Fatalf("margin deadline %d != verdict deadline %d", om.Deadline, tr.Deadline)
		}
	}

	// The timing pass only runs for schedulable nets.
	rep7 := analyze(t, e, figures.Figure7())
	if rep7.Schedulable || rep7.Timing != nil {
		t.Fatalf("unschedulable net got a timing report: %+v", rep7.Timing)
	}

	// And not at all when the option is off.
	plain := New(Config{Workers: 1})
	defer plain.Close()
	if rep := analyze(t, plain, figures.Figure4()); rep.Timing != nil {
		t.Fatal("timing pass ran without being configured")
	}
}

// TestTimingReportNotShared edits every field reachable from a report's
// timing section, then analyses a twin on the same engine: the twin's
// timing report comes from the same cache entry and must read as the
// original did.
func TestTimingReportNotShared(t *testing.T) {
	e := New(timingConfig(1))
	defer e.Close()
	n := figures.Figure2()
	rep := analyze(t, e, n)
	want := timingJSON(t, rep)
	tr := rep.Timing
	if tr == nil || tr.Verdict == nil || len(tr.Margins) != 2 {
		t.Fatalf("figure2 timing report = %s, want a verdict and two margins", want)
	}
	for _, om := range tr.Margins {
		if om.Result == nil || om.Result.Pass == nil || om.Result.Fail == nil || om.Result.Fail.Violation == nil {
			t.Fatalf("figure2 margin %s lacks a pass, a fail or its violation: %s", om.Kind, want)
		}
	}

	tr.MK += "edited"
	tr.Deadline++
	tr.Verdict.Events++
	tr.Verdict.Misses++
	for _, om := range tr.Margins {
		om.Kind += "edited"
		om.Result.Level++
		om.Result.Pass.Events++
		om.Result.Pass.Misses++
		om.Result.Fail.Events++
		om.Result.Fail.Misses++
		om.Result.Fail.Violation.Window += "edited"
	}
	tr.Margins[0] = &sim.OverloadMargin{Kind: "replaced"}
	tr.Margins = append(tr.Margins, &sim.OverloadMargin{Kind: "appended"})

	twin, err := petri.ParseString(petri.Format(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := timingJSON(t, analyze(t, e, twin)); got != want {
		t.Fatalf("a caller's edits reached a later hit:\n%s\nwant\n%s", got, want)
	}
}

// TestCloneTimingReportDeep fills every field reachable from a
// TimingReport with distinct non-zero values and checks that the copy
// equals the original and reaches none of its memory. A field added to
// any of the report's types fails the test until the copy handles it.
func TestCloneTimingReportDeep(t *testing.T) {
	orig := &TimingReport{}
	next := 0
	fillDistinct(t, reflect.ValueOf(orig).Elem(), "TimingReport", &next)
	c := cloneTimingReport(orig)
	if !reflect.DeepEqual(c, orig) {
		t.Fatalf("copy differs from the original:\n%+v\nvs\n%+v", c, orig)
	}
	owned := map[uintptr]string{}
	walkMemory(reflect.ValueOf(orig), "orig", func(addr uintptr, path string) { owned[addr] = path })
	walkMemory(reflect.ValueOf(c), "copy", func(addr uintptr, path string) {
		if o, ok := owned[addr]; ok {
			t.Errorf("%s shares memory with %s", path, o)
		}
	})
}

// fillDistinct sets every field reachable from v, allocating each
// pointer and giving each slice two elements, to a value that no other
// field of its kind holds.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), path, next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field", path, f.Name)
			}
			fillDistinct(t, v.Field(i), path+"."+f.Name, next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("%s: fillDistinct does not handle kind %s", path, v.Kind())
	}
}

// walkMemory calls visit with the address of every pointer target and
// every slice element reachable from v.
func walkMemory(v reflect.Value, path string, visit func(addr uintptr, path string)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			visit(v.Pointer(), path)
			walkMemory(v.Elem(), path, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			p := fmt.Sprintf("%s[%d]", path, i)
			visit(e.UnsafeAddr(), p)
			walkMemory(e, p, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkMemory(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	}
}
