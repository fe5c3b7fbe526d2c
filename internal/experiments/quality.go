package experiments

import (
	"fmt"

	"kjoin/internal/baseline"
	"kjoin/internal/core"
	"kjoin/internal/dataset"
	"kjoin/internal/eval"
	"kjoin/internal/mathx"
)

// scored is a result pair with its similarity, so one low-τ run can be
// thresholded into a whole τ sweep (result sets are monotone in τ).
type scored struct {
	x, y int
	sim  float64
}

// runQualitySystem runs one system on a labeled corpus at element
// threshold delta and object threshold tau, returning scored pairs.
func runQualitySystem(sys string, l *dataset.Labeled, delta, tau float64, workers int) ([]scored, error) {
	var out []scored
	switch sys {
	case "K-Join", "K-Join+":
		opt := core.Defaults(delta, tau)
		opt.Workers = workers
		opt.ComputeSims = true
		if sys == "K-Join+" {
			opt.Plus = true
			opt.Synonyms = l.Aliases
		}
		pairs, _, err := core.SelfJoin(l.H, l.Records, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, scored{p.X, p.Y, p.Sim})
		}
	case "FastJoin":
		pairs, _, err := baseline.FastJoin(l.Records, baseline.FastJoinOptions{Delta: delta, Tau: tau, Workers: workers})
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, scored{p.X, p.Y, p.Sim})
		}
	case "Synonym":
		pairs, _, err := baseline.SynonymJoin(l.Records, baseline.SynonymJoinOptions{Tau: tau, Synonyms: l.Synonyms, Workers: workers})
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, scored{p.X, p.Y, p.Sim})
		}
	case "Crowd":
		pairs, _, err := baseline.Crowd(l.Records, baseline.DefaultCrowdOptions(l.Truth, 7))
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			out = append(out, scored{p.X, p.Y, p.Sim})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", sys)
	}
	return out, nil
}

// measureAt thresholds scored pairs at tau and evaluates against truth.
func measureAt(pairs []scored, tau float64, truth map[[2]int]bool) eval.Quality {
	var keys [][2]int
	for _, p := range pairs {
		if mathx.GE(p.sim, tau) {
			keys = append(keys, [2]int{p.x, p.y})
		}
	}
	return eval.Measure(keys, truth)
}

// Table4 prints the quality comparison on Pub and Res (δ=0.5, τ=0.6).
func Table4(cfg Config) error {
	const delta, tau = 0.5, 0.6
	cfg.printf("Table 4: Quality on Pub and Res (delta=%.1f, tau=%.1f)\n", delta, tau)
	cfg.printf("%-10s | %-9s %-9s %-9s | %-9s %-9s %-9s\n",
		"", "Pub P", "Pub R", "Pub F", "Res P", "Res R", "Res F")
	systems := []string{"FastJoin", "K-Join", "K-Join+", "Synonym", "Crowd"}
	p, r := pub(cfg.QualityN), res(cfg.QualityN)
	for _, sys := range systems {
		pp, err := runQualitySystem(sys, p, delta, tau, cfg.Workers)
		if err != nil {
			return err
		}
		rp, err := runQualitySystem(sys, r, delta, tau, cfg.Workers)
		if err != nil {
			return err
		}
		qp := measureAt(pp, tau, p.Truth)
		qr := measureAt(rp, tau, r.Truth)
		cfg.printf("%-10s | %-9.1f %-9.1f %-9.1f | %-9.1f %-9.1f %-9.1f\n",
			sys,
			qp.Precision()*100, qp.Recall()*100, qp.F1()*100,
			qr.Precision()*100, qr.Recall()*100, qr.F1()*100)
	}
	return nil
}

// Fig7 prints effectiveness versus the object threshold τ (δ=0.5):
// recall and F-measure for the four threshold-based systems on Pub and
// Res (paper Figure 7 a–d).
func Fig7(cfg Config) error {
	const delta = 0.5
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	systems := []string{"FastJoin", "Synonym", "K-Join", "K-Join+"}
	for _, ds := range []struct {
		name string
		l    *dataset.Labeled
	}{{"Pub", pub(cfg.QualityN)}, {"Res", res(cfg.QualityN)}} {
		// One low-τ run per system, thresholded per τ.
		runs := map[string][]scored{}
		for _, sys := range systems {
			p, err := runQualitySystem(sys, ds.l, delta, taus[0], cfg.Workers)
			if err != nil {
				return err
			}
			runs[sys] = p
		}
		for _, metric := range []string{"Recall(%)", "F-measure"} {
			cfg.printf("Fig 7 %s vs tau (delta=%.1f) on %s\n", metric, delta, ds.name)
			cfg.printf("%-6s", "tau")
			for _, sys := range systems {
				cfg.printf(" %12s", sys)
			}
			cfg.printf("\n")
			for _, tau := range taus {
				cfg.printf("%-6.2f", tau)
				for _, sys := range systems {
					q := measureAt(runs[sys], tau, ds.l.Truth)
					if metric == "Recall(%)" {
						cfg.printf(" %12.1f", q.Recall()*100)
					} else {
						cfg.printf(" %12.3f", q.F1())
					}
				}
				cfg.printf("\n")
			}
		}
	}
	return nil
}

// Fig8 prints effectiveness versus the element threshold δ (τ=0.7):
// recall and F-measure on Pub and Res (paper Figure 8 a–d).
func Fig8(cfg Config) error {
	const tau = 0.7
	deltas := []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	systems := []string{"FastJoin", "Synonym", "K-Join", "K-Join+"}
	for _, ds := range []struct {
		name string
		l    *dataset.Labeled
	}{{"Pub", pub(cfg.QualityN)}, {"Res", res(cfg.QualityN)}} {
		type key struct {
			sys   string
			delta float64
		}
		runs := map[key]eval.Quality{}
		for _, sys := range systems {
			for _, delta := range deltas {
				p, err := runQualitySystem(sys, ds.l, delta, tau, cfg.Workers)
				if err != nil {
					return err
				}
				runs[key{sys, delta}] = measureAt(p, tau, ds.l.Truth)
			}
		}
		for _, metric := range []string{"Recall(%)", "F-measure"} {
			cfg.printf("Fig 8 %s vs delta (tau=%.1f) on %s\n", metric, tau, ds.name)
			cfg.printf("%-6s", "delta")
			for _, sys := range systems {
				cfg.printf(" %12s", sys)
			}
			cfg.printf("\n")
			for _, delta := range deltas {
				cfg.printf("%-6.2f", delta)
				for _, sys := range systems {
					q := runs[key{sys, delta}]
					if metric == "Recall(%)" {
						cfg.printf(" %12.1f", q.Recall()*100)
					} else {
						cfg.printf(" %12.3f", q.F1())
					}
				}
				cfg.printf("\n")
			}
		}
	}
	return nil
}
