package experiments

import (
	"lshjoin/internal/core"
	"lshjoin/internal/dataset"
	"lshjoin/internal/lc"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// Ablations runs the design-choice ablations DESIGN.md §7 calls out.
func (s *Suite) Ablations() ([]*Table, error) {
	var out []*Table
	for _, run := range []func() (*Table, error){
		s.AblationJU,
		s.AblationSafeLowerBound,
		s.AblationStratification,
		s.AblationMultiTable,
		s.AblationLC,
	} {
		t, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// AblationJU compares the paper's closed-form J_U (assumes p(s) = s) with
// the numeric-integration variant that uses the true sign-projection curve,
// and with LSH-S.
func (s *Suite) AblationJU() (*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	truths, err := env.Truth(TauTable...)
	if err != nil {
		return nil, err
	}
	closed, err := core.NewMergedJU(lsh.SingleSnapshot(env.Snap), core.JUClosedForm)
	if err != nil {
		return nil, err
	}
	numeric, err := core.NewMergedJU(lsh.SingleSnapshot(env.Snap), core.JUNumeric)
	if err != nil {
		return nil, err
	}
	lshS, err := core.NewMergedLSHS(lsh.SingleSnapshot(env.Snap), 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Ablation: J_U closed form (Eq. 4) vs numeric p(s)^k vs LSH-S (DBLP)",
		Columns: []string{"τ", "J", "JU (Eq.4)", "JU(numeric)", "LSH-S mean"},
		Notes: []string{
			"Eq. 4 assumes Definition 3's p(s) = s; sign random projection actually has p(s) = 1 − arccos(s)/π, which the numeric variant integrates.",
			"All three inherit the uniformity/skew problem §4.3 describes; none is competitive with LSH-SS.",
		},
	}
	for ti, tau := range TauTable {
		a, err := closed.Estimate(tau, nil)
		if err != nil {
			return nil, err
		}
		b, err := numeric.Estimate(tau, nil)
		if err != nil {
			return nil, err
		}
		cell, err := s.runCell(lshS, tau, truths[tau], xrand.Mix3(s.cfg.Seed, 11100, uint64(ti)))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ftau(tau), fint(truths[tau]), fnum(a), fnum(b), fnum(cell.summary.MeanEst),
		})
	}
	return t, nil
}

// AblationSafeLowerBound shows what the safe-lower-bound rule buys: LSH-SS
// with the rule vs an always-scale variant at high thresholds.
func (s *Suite) AblationSafeLowerBound() (*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	safe, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	always, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil, core.WithAlwaysScale())
	if err != nil {
		return nil, err
	}
	taus := []float64{0.6, 0.7, 0.8, 0.9}
	truths, err := env.Truth(taus...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Ablation: safe lower bound vs always-scale in SampleL (DBLP, high τ)",
		Columns: []string{"τ", "J", "safe: worst over / std", "always: worst over / std"},
		Notes: []string{
			"The safe-lower-bound rule (line 10 of Algorithm 1) is why LSH-SS 'hardly overestimates' in Fig. 2(a); removing it re-creates the RS-style blowups.",
		},
	}
	for ti, tau := range taus {
		rows := make([]string, 0, 4)
		rows = append(rows, ftau(tau), fint(truths[tau]))
		for ei, est := range []core.Estimator{safe, always} {
			cell, err := s.runCell(est, tau, truths[tau], xrand.Mix3(s.cfg.Seed, 11200+uint64(ei), uint64(ti)))
			if err != nil {
				return nil, err
			}
			worst := 0.0
			if cell.summary.NOver > 0 {
				worst = cell.summary.MeanOver
			}
			rows = append(rows, fpct(worst)+" / "+fnum(cell.summary.Std))
		}
		t.Rows = append(t.Rows, rows)
	}
	return t, nil
}

// AblationStratification compares stratified LSH-SS against plain uniform
// sampling with the same total pair budget (2n).
func (s *Suite) AblationStratification() (*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	data := env.Data.Vectors
	ss, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	rs, err := core.NewRSPop(data, nil, 2*len(data))
	if err != nil {
		return nil, err
	}
	taus := []float64{0.3, 0.5, 0.7, 0.9}
	truths, err := env.Truth(taus...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Ablation: stratified (LSH-SS, m_H+m_L = 2n) vs uniform (RS(pop), m = 2n)",
		Columns: []string{"τ", "J", "LSH-SS |err| / std", "RS(pop) |err| / std"},
		Notes: []string{
			"Cochran's observation (§5): intelligent stratification reduces variance at the same budget; the gap explodes as τ grows.",
		},
	}
	for ti, tau := range taus {
		row := []string{ftau(tau), fint(truths[tau])}
		for ei, est := range []core.Estimator{ss, rs} {
			cell, err := s.runCell(est, tau, truths[tau], xrand.Mix3(s.cfg.Seed, 11300+uint64(ei), uint64(ti)))
			if err != nil {
				return nil, err
			}
			row = append(row, fnum(cell.summary.MeanAbsErr)+" / "+fnum(cell.summary.Std))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationMultiTable compares the single-table estimator with the App. B.2.1
// median and virtual-bucket estimators on an ℓ = 5 index.
func (s *Suite) AblationMultiTable() (*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 5)
	if err != nil {
		return nil, err
	}
	single, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	median, err := core.NewMergedMedianSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	virtual, err := core.NewMergedVirtualSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	taus := []float64{0.5, 0.7, 0.9}
	truths, err := env.Truth(taus...)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Ablation: single table vs median vs virtual buckets (DBLP, ℓ = 5)",
		Columns: []string{"τ", "J", "single |err| / std", "median |err| / std", "virtual |err| / std"},
		Notes: []string{
			"App. B.2.1: the median tightens reliability (2^(−ℓ/2) failure bound); virtual buckets enlarge stratum H when k is too selective.",
		},
	}
	for ti, tau := range taus {
		row := []string{ftau(tau), fint(truths[tau])}
		for ei, est := range []core.Estimator{single, median, virtual} {
			cell, err := s.runCell(est, tau, truths[tau], xrand.Mix3(s.cfg.Seed, 11400+uint64(ei), uint64(ti)))
			if err != nil {
				return nil, err
			}
			row = append(row, fnum(cell.summary.MeanAbsErr)+" / "+fnum(cell.summary.Std))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationLC places the adapted Lattice Counting baseline on the τ grid so
// the §6.2 claim (consistent underestimation, omitted from the figures) is
// reproducible.
func (s *Suite) AblationLC() (*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	truths, err := env.Truth(TauTable...)
	if err != nil {
		return nil, err
	}
	lcEst, err := lc.New(env.Data.Vectors, env.Family, lc.Config{K: env.Snap.K(), Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}
	lc50, err := lc.New(env.Data.Vectors, env.Family, lc.Config{K: env.Snap.K(), MinSupport: 50, Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Baseline: adapted Lattice Counting LC(ξ) across τ (DBLP)",
		Columns: []string{"τ", "J", lcEst.Name(), lc50.Name()},
		Notes: []string{
			"§6.2: 'LC underestimates over the whole threshold range … it appears that LC is not adequate for binary LSH functions.'",
		},
	}
	for _, tau := range TauTable {
		a, err := lcEst.Estimate(tau, nil)
		if err != nil {
			return nil, err
		}
		b, err := lc50.Estimate(tau, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ftau(tau), fint(truths[tau]), fnum(a), fnum(b)})
	}
	return t, nil
}
