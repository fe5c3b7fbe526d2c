package main

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kjoin"
	"kjoin/datasets"
	"kjoin/internal/hierarchy"
)

// genHierarchy is the Table 2 hierarchy every workload runs over. Its
// shape is fixed; only the records vary with the seed.
func genHierarchy() *datasets.Hier { return datasets.GenHierarchy(datasets.DefaultHierarchy()) }

func tweetRecords(hr *datasets.Hier, n int, seed uint64) *datasets.Collection {
	cfg := datasets.TweetConfig(n)
	cfg.Seed = seed
	return datasets.GenRecords(hr, cfg)
}

func poiRecords(hr *datasets.Hier, n int, seed uint64) *datasets.Collection {
	cfg := datasets.POIConfig(n)
	cfg.Seed = seed
	return datasets.GenRecords(hr, cfg)
}

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s from a
// cumulative table (math/rand's Zipf needs s > 1).
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	acc := 0.0
	for i := range z.cum {
		acc += math.Pow(float64(i+1), -s)
		z.cum[i] = acc
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// skewRecords is the bench's own skewed generator: Tweet-shaped records
// (length 2..23 around 8, entity depths 5 and 6, 15% near-duplicates)
// whose entity tokens are Zipf(s=1) within each depth's whole pool, and
// whose base records all carry the same hot depth-4 token. The head of
// each pool is therefore in a large share of records: long postings
// lists and a dominant df rank, the regime where prefix filters degrade.
func skewRecords(hr *datasets.Hier, n int, seed uint64) *datasets.Collection {
	r := rand.New(rand.NewSource(int64(seed)))
	h := hr.H
	pool := func(d int) []hierarchy.NodeID {
		return append(append([]hierarchy.NodeID(nil), hr.NodesAt(0, d)...), hr.NodesAt(1, d)...)
	}
	pools := map[int][]hierarchy.NodeID{4: pool(4), 5: pool(5), 6: pool(6)}
	zipfs := map[int]*zipf{}
	for d, p := range pools {
		zipfs[d] = newZipf(len(p), 1.0)
	}
	hot := h.Name(pools[4][0])
	token := func() string {
		d := 5
		if r.Float64() < 0.4 {
			d = 6
		}
		return h.Name(pools[d][zipfs[d].draw(r)])
	}
	out := &datasets.Collection{Truth: map[[2]int]bool{}}
	root := make([]int, 0, n)
	members := map[int][]int{}
	for i := 0; i < n; i++ {
		if i > 0 && r.Float64() < 0.15 {
			base := r.Intn(i)
			rec := append([]string(nil), out.Records[base]...)
			for e := 1 + r.Intn(3); e > 0 && len(rec) > 2; e-- {
				// Position 0 holds the hot token; edits leave it alone.
				p := 1 + r.Intn(len(rec)-1)
				switch r.Intn(3) {
				case 0:
					rec[p] = token()
				case 1:
					rec = append(rec[:p], rec[p+1:]...)
				default:
					rec = append(rec, token())
				}
			}
			out.Records = append(out.Records, rec)
			rt := root[base]
			root = append(root, rt)
			for _, j := range members[rt] {
				out.Truth[[2]int{j, i}] = true
			}
			members[rt] = append(members[rt], i)
			continue
		}
		l := (r.Intn(9) + r.Intn(9) + r.Intn(9) + 1) * 2 / 3
		if l < 2 {
			l = 2
		}
		rec := []string{hot}
		seen := map[string]bool{hot: true}
		for len(rec) < l {
			if t := token(); !seen[t] {
				seen[t] = true
				rec = append(rec, t)
			}
		}
		out.Records = append(out.Records, rec)
		root = append(root, i)
		members[i] = []int{i}
	}
	return out
}

// writeHierarchy stores the hierarchy in the text form kjoin-serve and
// the kjoin CLI read.
func writeHierarchy(h *kjoin.Hierarchy, path string) error {
	var buf bytes.Buffer
	if _, err := h.WriteTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeRecords stores one object per line, whitespace-separated tokens.
func writeRecords(records [][]string, path string) error {
	var buf bytes.Buffer
	for _, rec := range records {
		buf.WriteString(strings.Join(rec, " "))
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadInputs reads a hierarchy file and a records file the way the
// batch CLI does: the analyst's cost before a join can start.
func loadInputs(dir string) (*kjoin.Hierarchy, [][]string, error) {
	f, err := os.Open(filepath.Join(dir, "hierarchy.txt"))
	if err != nil {
		return nil, nil, err
	}
	h, err := kjoin.ReadHierarchy(f)
	_ = f.Close() // read-only
	if err != nil {
		return nil, nil, err
	}
	rf, err := os.Open(filepath.Join(dir, "records.txt"))
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	var records [][]string
	sc := bufio.NewScanner(rf)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		records = append(records, strings.Fields(sc.Text()))
	}
	return h, records, sc.Err()
}
