package invariant

import (
	"fcpn/internal/linalg"
	"fcpn/internal/petri"
)

// RankTheoremReport holds the ingredients of the free-choice rank theorem.
type RankTheoremReport struct {
	// Consistent: ∃ f > 0 with fᵀD = 0.
	Consistent bool
	// Conservative: ∃ y > 0 with D·y = 0.
	Conservative bool
	// Rank is rank(D) of the |T|×|P| incidence matrix.
	Rank int
	// Clusters is the number of equal-conflict clusters.
	Clusters int
	// WellFormed is the theorem's verdict: a connected free-choice net has
	// a live and bounded marking iff it is consistent, conservative and
	// rank(D) = clusters − 1 (Desel–Esparza rank theorem).
	WellFormed bool
}

// RankTheoremFC evaluates the rank theorem for free-choice nets. The
// verdict is only meaningful for weakly connected FC nets; the report
// fields are informative for any net. Embedded-system nets with source
// and sink transitions are never conservative, hence never well-formed —
// exactly why the paper replaces well-formedness with quasi-static
// schedulability.
func RankTheoremFC(n *petri.Net, opt Options) (*RankTheoremReport, error) {
	tis, err := TInvariants(n, opt)
	if err != nil {
		return nil, err
	}
	pis, err := PInvariants(n, opt)
	if err != nil {
		return nil, err
	}
	d := n.IncidenceMatrix()
	m, err := linalg.MatFromInts(d)
	if err != nil {
		return nil, err
	}
	r := &RankTheoremReport{
		Consistent:   Consistent(n, tis),
		Conservative: Conservative(n, pis),
		Rank:         linalg.Rank(m),
		Clusters:     len(n.ConflictClusters()),
	}
	r.WellFormed = r.Consistent && r.Conservative && r.Rank == r.Clusters-1
	return r, nil
}
