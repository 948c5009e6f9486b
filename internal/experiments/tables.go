package experiments

import (
	"fmt"
	"math"
	"time"

	"lshjoin/internal/core"
	"lshjoin/internal/corpus"
	"lshjoin/internal/dataset"
	"lshjoin/internal/lc"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// Table1 reproduces Table 1: P(T), P(T|H), P(H|T) and P(T|L) on the
// DBLP-like dataset across τ ∈ {0.1 … 0.9}, computed exactly.
func (s *Suite) Table1() ([]*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	truths, err := env.Truth(TauTable...)
	if err != nil {
		return nil, err
	}
	jh := env.StratumTruth(0, TauTable)
	tab := env.Snap.Table(0)
	m := float64(tab.M())
	nh := float64(tab.NH())
	nl := float64(tab.NL())
	out := &Table{
		ID:      "table1",
		Title:   "Table 1: example probabilities in DBLP",
		Columns: []string{"τ", "P(T)", "P(T|H)", "P(H|T)", "P(T|L)"},
		Notes: []string{
			env.Describe(),
			"Shape criteria from the paper: P(T) collapses at high τ while P(T|H) stays well above log n/n, and P(H|T) grows with τ.",
		},
	}
	for _, tau := range TauTable {
		j := float64(truths[tau])
		h := float64(jh[tau])
		var pTH, pHT float64
		if nh > 0 {
			pTH = h / nh
		}
		if j > 0 {
			pHT = h / j
		}
		out.Rows = append(out.Rows, []string{
			ftau(tau), fnum(j / m), fnum(pTH), fnum(pHT), fnum((j - h) / nl),
		})
	}
	return []*Table{out}, nil
}

// JoinSizeTable reproduces the §6.2 inline table: J and selectivity vs τ on
// the DBLP-like dataset.
func (s *Suite) JoinSizeTable() ([]*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	truths, err := env.Truth(TauTable...)
	if err != nil {
		return nil, err
	}
	m := float64(env.Snap.Table(0).M())
	out := &Table{
		ID:      "joinsize",
		Title:   "§6.2 table: actual join size J and selectivity vs τ (DBLP)",
		Columns: []string{"τ", "J", "selectivity"},
		Notes: []string{
			env.Describe(),
			"Paper shape: J spans ~7 orders of magnitude from τ=0.1 to τ=0.9 with tiny but non-zero high-τ mass.",
		},
	}
	for _, tau := range TauTable {
		j := truths[tau]
		out.Rows = append(out.Rows, []string{
			ftau(tau), fint(j), fmt.Sprintf("%.3g%%", 100*float64(j)/m),
		})
	}
	return []*Table{out}, nil
}

// SpaceTable reproduces the §6.3 space table: extended-LSH-table bytes vs k
// on the DBLP-like dataset.
func (s *Suite) SpaceTable() ([]*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	out := &Table{
		ID:      "space",
		Title:   "§6.3 table: LSH table size vs k (DBLP)",
		Columns: []string{"k", "size (MB)", "non-empty buckets"},
		Notes: []string{
			"Accounting matches the paper: g values + bucket counts + vector ids, runtime overheads excluded.",
			"Paper shape: size grows sublinearly in k as buckets fragment toward singletons.",
		},
	}
	for _, k := range []int{10, 20, 30, 40, 50} {
		snap, err := lsh.BuildSnapshot(env.Data.Vectors, env.Family, k, 1)
		if err != nil {
			return nil, err
		}
		tab := snap.Table(0)
		out.Rows = append(out.Rows, []string{
			fint(int64(k)),
			fmt.Sprintf("%.2f", float64(tab.SizeBytes())/(1<<20)),
			fint(int64(tab.NumBuckets())),
		})
	}
	return []*Table{out}, nil
}

// RuntimeTable reproduces the §6.2 runtime comparison: average time per
// estimate for each algorithm, plus one-off analysis/build costs.
func (s *Suite) RuntimeTable() ([]*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	data := env.Data.Vectors
	ss, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	ssd, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil, core.WithDamp(core.DampAuto, 0))
	if err != nil {
		return nil, err
	}
	rsp, err := core.NewRSPop(data, nil, 0)
	if err != nil {
		return nil, err
	}
	rsc, err := core.NewRSCross(data, nil, 0)
	if err != nil {
		return nil, err
	}
	lshS, err := core.NewMergedLSHS(lsh.SingleSnapshot(env.Snap), 0)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	lcEst, err := lc.New(data, env.Family, lc.Config{K: env.Snap.K(), Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}
	lcBuild := time.Since(t0)

	out := &Table{
		ID:      "runtime",
		Title:   "§6.2 runtime: average time per estimate (DBLP)",
		Columns: []string{"algorithm", "avg time/estimate", "one-off cost"},
		Notes: []string{
			env.Describe(),
			"Paper shape: the sampling estimators answer in sub-second time; LC pays an extra signature-analysis cost; RS(pop)/RS(cross) cost is comparable to LSH-SS at the matched budget (the paper's 780 s RS figure reflects a much larger matched budget at n=800k).",
		},
	}
	reps := s.cfg.Reps/5 + 2
	taus := []float64{0.3, 0.5, 0.7, 0.9}
	rows := []struct {
		est    core.Estimator
		oneOff string
	}{
		{ss, "index build " + env.BuildTime.Round(time.Millisecond).String()},
		{ssd, "(shares index)"},
		{rsp, "none"},
		{rsc, "none"},
		{lshS, "(shares index)"},
		{lcEst, "signature analysis " + lcBuild.Round(time.Millisecond).String()},
	}
	for _, row := range rows {
		rng := xrand.New(s.cfg.Seed ^ 0xBEEF)
		t0 := time.Now()
		count := 0
		for _, tau := range taus {
			for r := 0; r < reps; r++ {
				if _, err := row.est.Estimate(tau, rng); err != nil {
					return nil, err
				}
				count++
			}
		}
		per := time.Since(t0) / time.Duration(count)
		perStr := per.Round(10 * time.Microsecond).String()
		if per < 10*time.Microsecond {
			perStr = "<10µs"
		}
		out.Rows = append(out.Rows, []string{row.est.Name(), perStr, row.oneOff})
	}
	return []*Table{out}, nil
}

// Table2 reproduces Table 2: α = P(T|H) and β = P(T|L) on the NYT-like and
// PUBMED-like datasets, with the assumed high/low-threshold bounds.
func (s *Suite) Table2() ([]*Table, error) {
	var out []*Table
	for _, kind := range []dataset.Kind{dataset.NYT, dataset.PubMed} {
		env, err := s.Env(kind, 0, 0)
		if err != nil {
			return nil, err
		}
		truths, err := env.Truth(TauTable...)
		if err != nil {
			return nil, err
		}
		jh := env.StratumTruth(0, TauTable)
		tab := env.Snap.Table(0)
		nh, nl := float64(tab.NH()), float64(tab.NL())
		n := float64(env.Data.N())
		t := &Table{
			ID:      "table2",
			Title:   fmt.Sprintf("Table 2: α and β in %s", env.Data.Name),
			Columns: []string{"τ", "α = P(T|H)", "β = P(T|L)"},
			Notes: []string{
				env.Describe(),
				fmt.Sprintf("assumed high-τ regime: α ≥ log n/n = %s and β < 1/n = %s", fnum(math.Log2(n)/n), fnum(1/n)),
				fmt.Sprintf("assumed low-τ regime: α, β ≥ log n/n = %s", fnum(math.Log2(n)/n)),
			},
		}
		for _, tau := range TauTable {
			j := float64(truths[tau])
			h := float64(jh[tau])
			var alpha float64
			if nh > 0 {
				alpha = h / nh
			}
			t.Rows = append(t.Rows, []string{ftau(tau), fnum(alpha), fnum((j - h) / nl)})
		}
		out = append(out, t)
	}
	return out, nil
}

// BuildTable reproduces the App. C.1 figures: index build time per dataset
// (plus the generation cost of our synthetic substitutes and their shapes).
func (s *Suite) BuildTable() ([]*Table, error) {
	out := &Table{
		ID:      "build",
		Title:   "App. C.1: dataset shapes and LSH index build time",
		Columns: []string{"dataset", "n", "k", "avg features", "distinct dims", "gen time", "index build"},
		Notes: []string{
			"Paper reports 4.7 s / 4.6 s / 5.6 s builds at full corpus scale; shapes (avg features, dimensionality) are the substitution targets from DESIGN.md §3.",
		},
	}
	for _, kind := range dataset.Kinds() {
		env, err := s.Env(kind, 0, 0)
		if err != nil {
			return nil, err
		}
		cs := corpus.Describe(env.Data.Vectors)
		out.Rows = append(out.Rows, []string{
			env.Data.Name,
			fint(int64(env.Data.N())),
			fint(int64(env.Snap.K())),
			fmt.Sprintf("%.1f", cs.AvgNNZ),
			fint(int64(cs.DistinctDims)),
			env.GenTime.Round(time.Millisecond).String(),
			env.BuildTime.Round(time.Millisecond).String(),
		})
	}
	return []*Table{out}, nil
}
