package core_test

import (
	"errors"
	"strings"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
)

// TestMaxAllocationsCapsDistinctReductions pins what Options.MaxAllocations
// caps. The ATM server has 2,048 T-allocations and 56 distinct
// T-reductions: the default sweep, which enumerates only the distinct
// reductions, passes under a cap of 100 and fails under 50, and the
// KeepDuplicateReductions sweep, which reduces every allocation, fails
// under 100.
func TestMaxAllocationsCapsDistinctReductions(t *testing.T) {
	n := atm.New().Net
	if got := core.CountAllocations(n); got != 2048 {
		t.Fatalf("ATM has %d T-allocations, want 2048", got)
	}
	s, err := core.Solve(n, core.Options{MaxAllocations: 100})
	if err != nil || len(s.Cycles) != 56 {
		t.Fatalf("cap 100: err=%v, want 56 cycles", err)
	}
	_, err = core.Solve(n, core.Options{MaxAllocations: 50})
	if !errors.Is(err, core.ErrTooManyAllocations) || !strings.Contains(err.Error(), "more than 50 distinct T-reductions") {
		t.Fatalf("cap 50: err=%v, want more than 50 distinct T-reductions", err)
	}
	_, err = core.Solve(n, core.Options{MaxAllocations: 100, KeepDuplicateReductions: true})
	if !errors.Is(err, core.ErrTooManyAllocations) {
		t.Fatalf("cap 100 with KeepDuplicateReductions: err=%v, want ErrTooManyAllocations", err)
	}
}
