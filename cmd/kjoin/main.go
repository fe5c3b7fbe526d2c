// Command kjoin runs a knowledge-aware similarity join from the command
// line: it reads a hierarchy file (the format written by
// Hierarchy.WriteTo: "<id>\t<parent>\t<name>" per line) and one or two
// object files (one object per line, whitespace-separated tokens) and
// prints the similar pairs as TSV: "<x>\t<y>\t<sim>".
//
// Usage:
//
//	kjoin -hierarchy kb.txt -input pois.txt -delta 0.8 -tau 0.85
//	kjoin -hierarchy kb.txt -input r.txt -input2 s.txt -set dice
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"kjoin"
)

func main() {
	var (
		hierPath = flag.String("hierarchy", "", "knowledge hierarchy file (required)")
		hierFmt  = flag.String("hierarchy-format", "kjoin", "hierarchy format: kjoin|paths|edges")
		inPath   = flag.String("input", "", "objects file, one per line (required)")
		in2Path  = flag.String("input2", "", "second collection for an R-S join (optional)")
		synPath  = flag.String("synonyms", "", "synonym rules file: one comma-separated group per line")
		delta    = flag.Float64("delta", 0.8, "element similarity threshold δ")
		tau      = flag.Float64("tau", 0.8, "object similarity threshold τ")
		scheme   = flag.String("scheme", "deep", "signature scheme: node|shallow|deep")
		verifier = flag.String("verifier", "adaptive", "verifier: basic|subgraph|adaptive")
		metric   = flag.String("metric", "standard", "element metric: standard|wupalmer")
		set      = flag.String("set", "jaccard", "set metric: jaccard|dice|cosine")
		plus     = flag.Bool("plus", false, "K-Join+ resolution (synonyms, typos, multi-node)")
		weighted = flag.Bool("weighted", true, "use the weighted path prefix")
		workers  = flag.Int("workers", 0, "probe workers (0 = GOMAXPROCS)")
		topk     = flag.Int("topk", 0, "return only the k most similar pairs (tau becomes the floor)")
		raw      = flag.Bool("raw", false, "tokenize input lines as raw text instead of splitting on whitespace")
		quiet    = flag.Bool("quiet", false, "suppress the stats summary on stderr")
	)
	flag.Parse()
	if *hierPath == "" || *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	h, err := readHierarchy(*hierPath, *hierFmt)
	fail(err)
	objs, err := readObjects(*inPath, *raw)
	fail(err)

	opt := kjoin.Defaults(*delta, *tau)
	opt.Weighted = *weighted
	opt.Plus = *plus
	opt.Workers = *workers
	switch *scheme {
	case "node":
		opt.Scheme = kjoin.NodeScheme
	case "shallow":
		opt.Scheme = kjoin.ShallowScheme
	case "deep":
		opt.Scheme = kjoin.DeepScheme
	default:
		fail(fmt.Errorf("unknown scheme %q", *scheme))
	}
	switch *verifier {
	case "basic":
		opt.Verifier = kjoin.BasicVerify
	case "subgraph":
		opt.Verifier = kjoin.SubGraphVerify
	case "adaptive":
		opt.Verifier = kjoin.AdaptiveVerify
	default:
		fail(fmt.Errorf("unknown verifier %q", *verifier))
	}
	switch *metric {
	case "standard":
		opt.Metric = kjoin.Standard
	case "wupalmer":
		opt.Metric = kjoin.WuPalmer
	default:
		fail(fmt.Errorf("unknown metric %q", *metric))
	}
	switch *set {
	case "jaccard":
		opt.Set = kjoin.Jaccard
	case "dice":
		opt.Set = kjoin.Dice
	case "cosine":
		opt.Set = kjoin.Cosine
	default:
		fail(fmt.Errorf("unknown set metric %q", *set))
	}
	if *synPath != "" {
		d, err := readSynonyms(*synPath)
		fail(err)
		opt.Synonyms = d
	}

	var pairs []kjoin.Pair
	var stats *kjoin.Stats
	switch {
	case *topk > 0 && *in2Path != "":
		fail(fmt.Errorf("-topk is only supported for self joins"))
	case *topk > 0:
		pairs, stats, err = kjoin.TopKSelfJoin(h, objs, *topk, opt)
		fail(err)
	case *in2Path != "":
		objs2, err2 := readObjects(*in2Path, *raw)
		fail(err2)
		pairs, stats, err = kjoin.Join(h, objs, objs2, opt)
		fail(err)
	default:
		pairs, stats, err = kjoin.SelfJoin(h, objs, opt)
		fail(err)
	}

	w := bufio.NewWriter(os.Stdout)
	for _, p := range pairs {
		fmt.Fprintf(w, "%d\t%d\t%.6f\n", p.X, p.Y, p.Sim)
	}
	fail(w.Flush())
	if !*quiet {
		// No size_pruned: that counter belongs to the streaming engine's
		// size gate (GET /stats). A batch join bounds sizes while it
		// gathers, so every candidate it counts went to the verifier.
		// verify_cpu is summed over the workers (it can exceed probe, which
		// is wall time) and leaves out the count-pruned pairs the gather
		// settled from its sketch column.
		fmt.Fprintf(os.Stderr, "objects=%d candidates=%d count_pruned=%d results=%d preprocess=%v probe=%v verify_cpu=%v\n",
			stats.Objects, stats.Candidates, stats.Verify.CountPruned, len(pairs), stats.Preprocess, stats.Probe, stats.VerifyTime)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kjoin:", err)
		os.Exit(1)
	}
}

func readHierarchy(path, format string) (*kjoin.Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//kjoinlint:ignore syncerr read-only open; a close failure cannot lose data
	defer f.Close()
	switch format {
	case "kjoin":
		return kjoin.ReadHierarchy(f)
	case "paths":
		return kjoin.HierarchyFromPaths(f, '/', "Root")
	case "edges":
		return kjoin.HierarchyFromEdges(f, "Root")
	default:
		return nil, fmt.Errorf("unknown hierarchy format %q", format)
	}
}

func readObjects(path string, raw bool) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//kjoinlint:ignore syncerr read-only open; a close failure cannot lose data
	defer f.Close()
	var out [][]string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if raw {
			out = append(out, kjoin.Tokenize(sc.Text()))
		} else {
			out = append(out, strings.Fields(sc.Text()))
		}
	}
	return out, sc.Err()
}

func readSynonyms(path string) (*kjoin.Synonyms, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//kjoinlint:ignore syncerr read-only open; a close failure cannot lose data
	defer f.Close()
	d := kjoin.NewSynonyms()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var group []string
		for _, t := range strings.Split(sc.Text(), ",") {
			if t = strings.TrimSpace(t); t != "" {
				group = append(group, t)
			}
		}
		if len(group) > 1 {
			d.Add(group...)
		}
	}
	return d, sc.Err()
}
