package matching

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"kjoin/internal/mathx"
)

// oracleGreedyMaxWeight is l_w as it was first written, sorting with a
// less function over (weight descending, X, Y): the reference the
// Solver's form must match bit for bit.
func oracleGreedyMaxWeight(edges []Edge) float64 {
	es := append([]Edge(nil), edges...)
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if c := mathx.Cmp(a.W, b.W); c != 0 {
			return c > 0
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	busyX, busyY := map[int]bool{}, map[int]bool{}
	total := 0.0
	for _, e := range es {
		if busyX[e.X] || busyY[e.Y] {
			continue
		}
		busyX[e.X], busyY[e.Y] = true, true
		total += e.W
	}
	return total
}

// oracleGreedyMinDegree is l_e as it was first written: after every pick
// it recounts each live vertex's live edges from scratch, O(n⁴) in all.
func oracleGreedyMinDegree(nx, ny int, edges []Edge) float64 {
	adj := make([][]Edge, nx)
	for _, e := range edges {
		adj[e.X] = append(adj[e.X], e)
	}
	degX, degY := make([]int, nx), make([]int, ny)
	for _, e := range edges {
		degX[e.X]++
		degY[e.Y]++
	}
	goneX, goneY := make([]bool, nx), make([]bool, ny)
	total := 0.0
	for {
		bestX, bestD := -1, 1<<30
		for x := 0; x < nx; x++ {
			if !goneX[x] && degX[x] > 0 && degX[x] < bestD {
				bestX, bestD = x, degX[x]
			}
		}
		if bestX < 0 {
			return total
		}
		ax, pick, pickD := adj[bestX], -1, 1<<30
		for i, e := range ax {
			if goneY[e.Y] {
				continue
			}
			if degY[e.Y] < pickD || (degY[e.Y] == pickD && pick >= 0 && (e.W > ax[pick].W || (mathx.Cmp(e.W, ax[pick].W) == 0 && e.Y < ax[pick].Y))) {
				pickD, pick = degY[e.Y], i
			}
		}
		if pick < 0 {
			goneX[bestX], degX[bestX] = true, 0
			continue
		}
		total += ax[pick].W
		goneX[bestX], goneY[ax[pick].Y] = true, true
		for x := 0; x < nx; x++ {
			if goneX[x] {
				continue
			}
			d := 0
			for _, e := range adj[x] {
				if !goneY[e.Y] {
					d++
				}
			}
			degX[x] = d
		}
		for y := 0; y < ny; y++ {
			if goneY[y] {
				continue
			}
			d := 0
			for x := 0; x < nx; x++ {
				if goneX[x] {
					continue
				}
				for _, e := range adj[x] {
					if e.Y == y {
						d++
					}
				}
			}
			degY[y] = d
		}
	}
}

// tiedWeights are Definition 1 similarities of nearby hierarchy nodes:
// few distinct values, so edges tie on weight.
var tiedWeights = []float64{0.5, 2.0 / 3, 0.75, 0.8, 1}

// tiedBigraph draws an nx×ny bigraph whose weights come from a handful of
// values, so that weights and degrees tie often, with some rows and
// columns left empty, a duplicated edge now and then, and the edges in
// random order.
func tiedBigraph(r *rand.Rand, nx, ny int, density float64) []Edge {
	emptyRow, emptyCol := r.Intn(nx+1), r.Intn(ny+1)
	var es []Edge
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if x == emptyRow || y == emptyCol || r.Float64() >= density {
				continue
			}
			es = append(es, Edge{X: x, Y: y, W: tiedWeights[r.Intn(len(tiedWeights))]})
			if r.Intn(20) == 0 {
				es = append(es, Edge{X: x, Y: y, W: tiedWeights[r.Intn(len(tiedWeights))]})
			}
		}
	}
	r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// TestGreedyMatchesOracle: the Solver's greedy bounds — l_e with
// incremental degrees over a reverse adjacency, l_w with slices.SortFunc
// — have the bits of the originals over random and adversarial bigraphs:
// tied weights and degrees, empty rows and columns, duplicated edges,
// complete and single-row graphs, n up to 200. One Solver runs them all,
// so a workspace carried from a larger graph into a smaller one is
// covered too.
func TestGreedyMatchesOracle(t *testing.T) {
	var s Solver
	r := rand.New(rand.NewSource(43))
	check := func(what string, nx, ny int, es []Edge) {
		t.Helper()
		if got, want := s.GreedyMaxWeight(es), oracleGreedyMaxWeight(es); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d×%d, %d edges): GreedyMaxWeight %v, oracle %v", what, nx, ny, len(es), got, want)
		}
		if got, want := s.GreedyMinDegree(nx, ny, es), oracleGreedyMinDegree(nx, ny, es); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%d×%d, %d edges): GreedyMinDegree %v, oracle %v", what, nx, ny, len(es), got, want)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		nx, ny := 1+r.Intn(12), 1+r.Intn(12)
		check(fmt.Sprintf("trial %d", trial), nx, ny, tiedBigraph(r, nx, ny, 0.1+0.9*r.Float64()))
		_, _, es := randomBigraph(r)
		mx, my := 0, 0
		for _, e := range es {
			mx, my = max(mx, e.X+1), max(my, e.Y+1)
		}
		check(fmt.Sprintf("random trial %d", trial), mx, my, es)
	}
	for _, n := range []int{16, 40, 64, 100} {
		for _, density := range []float64{0.05, 0.3, 1} {
			check(fmt.Sprintf("n=%d density %v", n, density), n, n+r.Intn(5), tiedBigraph(r, n, n, density))
		}
	}
	// One weight everywhere: every pick ties on weight and on degree.
	var complete, row []Edge
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			complete = append(complete, Edge{X: x, Y: y, W: 0.75})
		}
		row = append(row, Edge{X: 0, Y: x, W: 0.75})
	}
	check("complete, one weight", 30, 30, complete)
	check("one row", 1, 30, row)
	check("no edges", 5, 5, nil)
	check("n=200 sparse", 200, 200, tiedBigraph(r, 200, 200, 0.02))
	check("n=200 dense", 200, 200, tiedBigraph(r, 200, 200, 0.5))
}

// BenchmarkGroupSolve is the cost of one group on the adaptive
// verifier's B^l rung: the exact Hungarian solve (MaxWeight) it takes
// against the paper's greedy lower bound (LowerBound, §5.2.2), on n×n
// groups whose edges are all present (dense) or 30 % of them (sparse),
// with the weights tying the way element similarities do.
func BenchmarkGroupSolve(b *testing.B) {
	for _, density := range []float64{1, 0.3} {
		for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
			r := rand.New(rand.NewSource(int64(n)))
			var es []Edge
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					if r.Float64() < density {
						es = append(es, Edge{X: x, Y: y, W: tiedWeights[r.Intn(len(tiedWeights))]})
					}
				}
			}
			var s Solver
			b.Run(fmt.Sprintf("density=%v/n=%d/exact", density, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.MaxWeight(n, n, es)
				}
			})
			b.Run(fmt.Sprintf("density=%v/n=%d/lower", density, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.LowerBound(n, n, es)
				}
			})
		}
	}
}
