package linalg

import "math/big"

// Rank computes the rank of the matrix by fraction-free Gaussian
// elimination (Bareiss-style pivoting) in exact big.Int arithmetic, so
// no entry can overflow whatever the matrix.
func Rank(m *Mat) int {
	// Work on a copy.
	work := make([]Vec, m.Rows)
	for i, r := range m.Data {
		work[i] = r.Clone()
	}
	rank := 0
	col := 0
	for rank < len(work) && col < m.Cols {
		// Find pivot.
		pivot := -1
		for i := rank; i < len(work); i++ {
			if work[i][col].Sign() != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			col++
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		pv := work[rank][col]
		tmp := new(big.Int)
		for i := rank + 1; i < len(work); i++ {
			if work[i][col].Sign() == 0 {
				continue
			}
			// row_i = pv*row_i - work[i][col]*row_rank
			factor := new(big.Int).Set(work[i][col])
			for j := col; j < m.Cols; j++ {
				tmp.Mul(factor, work[rank][j])
				work[i][j].Mul(work[i][j], pv)
				work[i][j].Sub(work[i][j], tmp)
			}
			work[i].NormalizeGCD()
		}
		rank++
		col++
	}
	return rank
}
