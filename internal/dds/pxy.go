package dds

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// PXY is the parallelized Core-Approx of Ma et al. (the paper's
// state-of-the-art DDS baseline): enumerate every candidate x in [1, √m]
// and compute the largest y with a non-empty [x, y]-core, then symmetrically
// every y in [1, √m] computing the largest x; the pair maximizing x·y is
// [x*, y*] and its core is a 2-approximate DDS (Lemma 3). The enumeration
// is safe because x·y <= m for any non-empty [x, y]-core, so min(x, y) <= √m.
//
// Parallelization is per candidate, dynamically assigned to workers. Each
// in-flight candidate peels its own O(n)-sized mutable copy of the degree
// state — the per-thread memory growth that makes PXY exceed memory on the
// paper's Twitter graph once p > 4 (Exp-5/Exp-7).
//
// PXY also suffers load imbalance: the peel cost varies wildly across
// candidates, so big x values finish immediately while x=1 pays a full
// decomposition; the dynamic assignment here mitigates but cannot remove
// the critical path.
func PXY(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
	if err := cancel.Check(ctx); err != nil {
		return solver.DirectedResult{}, err
	}
	m := d.M()
	if m == 0 {
		return solver.DirectedResult{Algorithm: "PXY"}, nil
	}
	limit := int32(math.Sqrt(float64(m)))
	if limit < 1 {
		limit = 1
	}
	// Candidates 1..limit for the x sweep, then 1..limit for the y sweep.
	total := int(limit) * 2
	var bestProduct atomic.Int64
	var mu sync.Mutex
	var bestX, bestY int32
	rev := d.Reverse()
	var nextCandidate atomic.Int64
	parallel.Workers(p.Workers, func(int) {
		for {
			i := int(nextCandidate.Add(1)) - 1
			if i >= total {
				return
			}
			var x, y int32
			if i < int(limit) {
				x = int32(i) + 1
				y = YMax(d, x)
			} else {
				y = int32(i-int(limit)) + 1
				x = YMax(rev, y)
			}
			prod := int64(x) * int64(y)
			if prod > 0 && parallel.MaxInt64(&bestProduct, prod) {
				mu.Lock()
				// Re-check under the lock: another worker may have raised
				// bestProduct between our CAS and here with an even larger
				// product; only record if we still hold the max.
				if prod == bestProduct.Load() {
					bestX, bestY = x, y
				}
				mu.Unlock()
			}
		}
	})
	if bestProduct.Load() == 0 {
		return solver.DirectedResult{Algorithm: "PXY"}, nil
	}
	s, t := XYCore(d, bestX, bestY)
	return solver.DirectedResult{
		Algorithm:  "PXY",
		S:          s,
		T:          t,
		Density:    d.DensityST(s, t),
		XStar:      bestX,
		YStar:      bestY,
		Iterations: total,
	}, nil
}
