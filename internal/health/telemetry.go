package health

import "bagualu/internal/mpi"

// Telemetry aggregation. Every rank holds one row of the observation
// matrix: the mean slowdown it measured on each incoming link since
// the last collection. CollectScores assembles the full matrix over
// the supernode hierarchy — members send their row to their supernode
// leader, leaders exchange blocks, leaders broadcast the matrix back
// down — and reduces each column to a per-rank slowness score.
//
// The column reduction is a minimum over observers: an observed link
// multiplier is max(sender slowdown, receiver slowdown), so every
// observation of rank r is an upper bound on r's own slowdown, and
// the tightest bound wins. This makes scoring robust to slow
// observers (a straggler sees everyone as slow, but its votes never
// undercut an honest one) and immune to retransmit-burst noise on
// individual links. Only when every observer of r is itself degraded
// can r be overestimated — at that point the distinction no longer
// matters for scheduling.

// Distinct p2p user-tag base so telemetry traffic can never alias
// expert-migration traffic (tag base 1<<20) or application tags.
const (
	tagRow    = 1 << 21
	tagBlock  = 1<<21 + 1
	tagMatrix = 1<<21 + 2
)

// CollectScores aggregates link observations over comm's supernode
// hierarchy and returns one slowness score per comm rank (1 =
// nominal). row is the caller's observation row indexed by comm rank
// (0 = no samples for that sender). Deterministic: identical rows on
// every rank yield identical scores regardless of scheduling. All
// ranks of comm must call it collectively.
func CollectScores(c *mpi.Comm, row []float64) []float64 {
	n := c.Size()
	if n == 1 {
		return []float64{1}
	}
	me := c.Rank()

	// A supernode's leader is its lowest comm rank, groups[j][0].
	groups, of := c.Supernodes()
	mine := groups[of[me]]
	myLeader := mine[0]

	matrix := make([]float64, n*n)
	fill := func(r int, vals []float32) {
		for s := 0; s < n; s++ {
			matrix[r*n+s] = float64(vals[s])
		}
	}
	row32 := make([]float32, n)
	for s := 0; s < n; s++ {
		row32[s] = float32(row[s])
	}

	if me != myLeader {
		c.SendMsg(myLeader, tagRow, row32, nil)
		flat := c.Recv(myLeader, tagMatrix)
		for i, v := range flat {
			matrix[i] = float64(v)
		}
		return scoreColumns(matrix, n)
	}

	// Leader: gather member rows (ascending member order keeps the
	// exchange schedule deterministic).
	fill(me, row32)
	members := mine[1:]
	for _, q := range members {
		r, _ := c.RecvMsg(q, tagRow)
		fill(q, r)
	}

	// Leaders exchange their supernode's block of rows.
	block := make([]float32, 0, len(mine)*n)
	for _, q := range mine {
		for s := 0; s < n; s++ {
			block = append(block, float32(matrix[q*n+s]))
		}
	}
	for _, g := range groups {
		if l := g[0]; l != me {
			c.SendMsg(l, tagBlock, block, mine)
		}
	}
	for _, g := range groups {
		l := g[0]
		if l == me {
			continue
		}
		data, rows := c.RecvMsg(l, tagBlock)
		for i, r := range rows {
			fill(r, data[i*n:(i+1)*n])
		}
	}

	// Broadcast the assembled matrix down to members.
	flat := make([]float32, n*n)
	for i, v := range matrix {
		flat[i] = float32(v)
	}
	for _, q := range members {
		c.SendMsg(q, tagMatrix, flat, nil)
	}
	return scoreColumns(matrix, n)
}

// suspectMult is the raw-score level above which an observer's own
// row is distrusted in the refinement pass. Halfway between nominal
// and the default degradation threshold: high enough that retransmit
// noise never disqualifies an honest observer, low enough that a real
// straggler's votes are discarded well before it is formally Degraded.
const suspectMult = 1.5

// scoreColumns reduces column r of the observation matrix to rank r's
// slowness score in two passes. The first takes the minimum positive
// observation by any other rank — every observation is an upper bound
// (observed multiplier = max of the endpoints' slowdowns), so the
// tightest bound wins. The second discards rows whose observer is
// itself suspect under the first pass: with hierarchical collectives a
// rank's traffic may route exclusively through its supernode leader,
// and if that leader is the straggler it is the rank's ONLY observer —
// without the second pass every healthy member of a straggler-led
// supernode inherits the leader's slowdown. A rank left with no
// trustworthy observer scores 1: indistinguishable-from-its-leader is
// not evidence of slowness, and defaulting to healthy keeps mitigation
// from draining ranks on hearsay.
func scoreColumns(matrix []float64, n int) []float64 {
	minOver := func(r int, trust func(j int) bool) float64 {
		best := 0.0
		for j := 0; j < n; j++ {
			if j == r || !trust(j) {
				continue
			}
			if v := matrix[j*n+r]; v > 0 && (best == 0 || v < best) {
				best = v
			}
		}
		return best
	}
	raw := make([]float64, n)
	for r := 0; r < n; r++ {
		raw[r] = minOver(r, func(int) bool { return true })
	}
	scores := make([]float64, n)
	for r := 0; r < n; r++ {
		best := minOver(r, func(j int) bool { return raw[j] == 0 || raw[j] < suspectMult })
		if best == 0 {
			best = 1
		}
		scores[r] = best
	}
	return scores
}
