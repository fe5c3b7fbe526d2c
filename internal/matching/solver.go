package matching

import (
	"cmp"
	"slices"

	"kjoin/internal/mathx"
)

// Solver is a reusable workspace for the package's algorithms: the
// Hungarian maximum-weight matching and the greedy lower / row-column
// upper bounds of §5.2. Every buffer grows monotonically and is reset
// (not freed) per call, so a Solver that has reached its steady-state
// size runs every method without allocating. A Solver is not safe for
// concurrent use; K-Join keeps one per probe worker (inside
// verify.Scratch). The zero value is ready to use.
type Solver struct {
	// Hungarian workspace: dense padded (n+1)×(n+1) cost matrix (flat,
	// row-major) and the dual-potential arrays of the O(n³) algorithm.
	cost []float64
	u    []float64
	v    []float64
	minv []float64
	p    []int
	way  []int
	used []bool

	// Greedy / bound workspace.
	es       []Edge  // sorted copy of the edges for GreedyMaxWeight
	busyX    []bool  // matched left vertices (GreedyMaxWeight)
	busyY    []bool  // matched right vertices
	adjOff   []int32 // CSR offsets per left vertex (GreedyMinDegree)
	adjEdges []Edge  // CSR edge storage, input order within a vertex
	revOff   []int32 // CSR offsets per right vertex
	revX     []int32 // left endpoints per right vertex, input order
	degX     []int32
	degY     []int32
	goneX    []bool
	goneY    []bool
	maxX     []float64 // per-vertex maxima (UpperBound)
	maxY     []float64
}

// growFloats returns buf with length exactly n, reusing its backing
// array when possible; new or recycled slots are NOT cleared.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// MaxWeight computes the maximum-weight matching weight of the bigraph
// with nx left vertices, ny right vertices and the given edges. It is
// the allocation-free form of the package-level MaxWeight; use
// MaxWeightMatch when the per-vertex assignment is needed.
func (s *Solver) MaxWeight(nx, ny int, edges []Edge) float64 {
	if nx == 0 || ny == 0 || len(edges) == 0 {
		return 0
	}
	n := s.solve(nx, ny, edges)
	total := 0.0
	for j := 1; j <= n; j++ {
		i := s.p[j]
		if i == 0 || i > nx || j > ny {
			continue
		}
		if w := -s.cost[i*(n+1)+j]; w > 0 {
			total += w
		}
	}
	return total
}

// MaxWeightMatch is MaxWeight but additionally fills matchX (grown if
// needed) with, for each left vertex, the matched right vertex or -1.
func (s *Solver) MaxWeightMatch(nx, ny int, edges []Edge, matchX []int) (float64, []int) {
	matchX = growInts(matchX, nx)
	for i := range matchX {
		matchX[i] = -1
	}
	if nx == 0 || ny == 0 || len(edges) == 0 {
		return 0, matchX
	}
	n := s.solve(nx, ny, edges)
	total := 0.0
	for j := 1; j <= n; j++ {
		i := s.p[j]
		if i == 0 || i > nx || j > ny {
			continue
		}
		if w := -s.cost[i*(n+1)+j]; w > 0 {
			matchX[i-1] = j - 1
			total += w
		}
	}
	return total, matchX
}

// solve runs the Hungarian algorithm on the padded square matrix of
// side n = max(nx, ny), leaving the assignment in s.p and the negated
// weights in s.cost. It mirrors the original package-level MaxWeight
// exactly (same operations in the same order), so results are
// bit-identical to the seed implementation.
func (s *Solver) solve(nx, ny int, edges []Edge) int {
	n := nx
	if ny > n {
		n = ny
	}
	m := (n + 1) * (n + 1)
	s.cost = growFloats(s.cost, m)
	for i := range s.cost {
		s.cost[i] = 0
	}
	// cost[i][j] = -w so that minimizing total cost maximizes weight.
	for _, e := range edges {
		c := &s.cost[(e.X+1)*(n+1)+e.Y+1]
		if e.W > -*c {
			*c = -e.W
		}
	}

	const inf = 1e18
	s.u = growFloats(s.u, n+1)
	s.v = growFloats(s.v, n+1)
	s.minv = growFloats(s.minv, n+1)
	s.p = growInts(s.p, n+1)
	s.way = growInts(s.way, n+1)
	s.used = growBools(s.used, n+1)
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j] = 0, 0
		s.p[j], s.way[j] = 0, 0
	}

	for i := 1; i <= n; i++ {
		s.p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			s.minv[j] = inf
			s.used[j] = false
		}
		for {
			s.used[j0] = true
			i0 := s.p[j0]
			delta := inf
			j1 := 0
			row := s.cost[i0*(n+1) : (i0+1)*(n+1)]
			for j := 1; j <= n; j++ {
				if s.used[j] {
					continue
				}
				cur := row[j] - s.u[i0] - s.v[j]
				if cur < s.minv[j] {
					s.minv[j] = cur
					s.way[j] = j0
				}
				if s.minv[j] < delta {
					delta = s.minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if s.used[j] {
					s.u[s.p[j]] += delta
					s.v[j] -= delta
				} else {
					s.minv[j] -= delta
				}
			}
			j0 = j1
			if s.p[j0] == 0 {
				break
			}
		}
		for {
			j1 := s.way[j0]
			s.p[j0] = s.p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	return n
}

// edgeCmp is the deterministic greedy edge order of §5.2.2: heaviest
// first, ties broken on (X, Y). (X, Y) pairs are unique within one
// bigraph, so the order is total and any sort yields one permutation.
func edgeCmp(a, b Edge) int {
	if c := mathx.Cmp(b.W, a.W); c != 0 {
		return c
	}
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	return cmp.Compare(a.Y, b.Y)
}

// GreedyMaxWeight is the allocation-free form of the package-level
// GreedyMaxWeight (lower bound l_w of §5.2.2).
func (s *Solver) GreedyMaxWeight(edges []Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	s.es = append(s.es[:0], edges...)
	slices.SortFunc(s.es, edgeCmp)
	mx, my := 0, 0
	for _, e := range edges {
		if e.X >= mx {
			mx = e.X + 1
		}
		if e.Y >= my {
			my = e.Y + 1
		}
	}
	s.busyX = growBools(s.busyX, mx)
	s.busyY = growBools(s.busyY, my)
	clear(s.busyX)
	clear(s.busyY)
	total := 0.0
	for _, e := range s.es {
		if s.busyX[e.X] || s.busyY[e.Y] {
			continue
		}
		s.busyX[e.X] = true
		s.busyY[e.Y] = true
		total += e.W
	}
	return total
}

// GreedyMinDegree is the allocation-free form of the package-level
// GreedyMinDegree (lower bound l_e of §5.2.2). The adjacency is stored in
// CSR form both ways — left vertex → its edges in input order, right
// vertex → its left endpoints — so a pick decrements only the degrees of
// the removed pair's live neighbours: O(nx + deg) per pick, with the
// degrees, picks and sum of the original that recounted them all.
func (s *Solver) GreedyMinDegree(nx, ny int, edges []Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	s.adjOff = growInt32s(s.adjOff, nx+1)
	s.revOff = growInt32s(s.revOff, ny+1)
	clear(s.adjOff)
	clear(s.revOff)
	for _, e := range edges {
		s.adjOff[e.X+1]++
		s.revOff[e.Y+1]++
	}
	for i := 1; i <= nx; i++ {
		s.adjOff[i] += s.adjOff[i-1]
	}
	for i := 1; i <= ny; i++ {
		s.revOff[i] += s.revOff[i-1]
	}
	s.adjEdges = growEdges(s.adjEdges, len(edges))
	s.revX = growInt32s(s.revX, len(edges))
	s.degX = growInt32s(s.degX, nx)
	s.degY = growInt32s(s.degY, ny)
	clear(s.degX)
	clear(s.degY)
	for _, e := range edges {
		s.adjEdges[s.adjOff[e.X]+s.degX[e.X]] = e
		s.degX[e.X]++
		s.revX[s.revOff[e.Y]+s.degY[e.Y]] = int32(e.X)
		s.degY[e.Y]++
	}
	s.goneX = growBools(s.goneX, nx)
	s.goneY = growBools(s.goneY, ny)
	clear(s.goneX)
	clear(s.goneY)
	total := 0.0
	for {
		// Pick live left vertex with the smallest positive degree.
		bestX, bestD := -1, int32(1<<30)
		for x := 0; x < nx; x++ {
			if s.goneX[x] || s.degX[x] <= 0 {
				continue
			}
			if s.degX[x] < bestD {
				bestD = s.degX[x]
				bestX = x
			}
		}
		if bestX < 0 {
			break
		}
		// Among its live neighbours pick the one with the smallest degree;
		// break ties on weight (heavier first) then index for determinism.
		// Degrees count live edges, so a live left vertex of positive
		// degree has a live neighbour.
		ax := s.adjEdges[s.adjOff[bestX]:s.adjOff[bestX+1]]
		pick := -1
		pickD := int32(1 << 30)
		for i := range ax {
			e := &ax[i]
			if s.goneY[e.Y] {
				continue
			}
			if s.degY[e.Y] < pickD || (s.degY[e.Y] == pickD && pick >= 0 && (e.W > ax[pick].W || (mathx.Cmp(e.W, ax[pick].W) == 0 && e.Y < ax[pick].Y))) {
				pickD = s.degY[e.Y]
				pick = i
			}
		}
		pe := ax[pick]
		total += pe.W
		s.goneX[bestX] = true
		s.goneY[pe.Y] = true
		// Each survivor loses its edges to the removed vertices.
		for _, e := range ax {
			if !s.goneY[e.Y] {
				s.degY[e.Y]--
			}
		}
		for _, x := range s.revX[s.revOff[pe.Y]:s.revOff[pe.Y+1]] {
			if !s.goneX[x] {
				s.degX[x]--
			}
		}
	}
	return total
}

func growEdges(buf []Edge, n int) []Edge {
	if cap(buf) < n {
		return make([]Edge, n)
	}
	return buf[:n]
}

// LowerBound is the allocation-free form of the package-level
// LowerBound: max(GreedyMaxWeight, GreedyMinDegree).
func (s *Solver) LowerBound(nx, ny int, edges []Edge) float64 {
	lw := s.GreedyMaxWeight(edges)
	le := s.GreedyMinDegree(nx, ny, edges)
	if le > lw {
		return le
	}
	return lw
}

// UpperBound is the allocation-free form of the package-level
// UpperBound (Equation 6).
func (s *Solver) UpperBound(nx, ny int, edges []Edge) float64 {
	s.maxX = growFloats(s.maxX, nx)
	s.maxY = growFloats(s.maxY, ny)
	for i := 0; i < nx; i++ {
		s.maxX[i] = 0
	}
	for i := 0; i < ny; i++ {
		s.maxY[i] = 0
	}
	for _, e := range edges {
		if e.W > s.maxX[e.X] {
			s.maxX[e.X] = e.W
		}
		if e.W > s.maxY[e.Y] {
			s.maxY[e.Y] = e.W
		}
	}
	sx, sy := 0.0, 0.0
	for i := 0; i < nx; i++ {
		sx += s.maxX[i]
	}
	for i := 0; i < ny; i++ {
		sy += s.maxY[i]
	}
	if sx < sy {
		return sx
	}
	return sy
}
