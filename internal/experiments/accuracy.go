package experiments

import (
	"fmt"

	"lshjoin/internal/core"
	"lshjoin/internal/dataset"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// stdEstimators builds the four algorithms of Figures 2 and 3: LSH-SS,
// LSH-SS(D), RS(pop) and RS(cross) with the paper's §6.1 budgets
// (m_H = m_L = n, δ = log n, m_R = 1.5n).
func stdEstimators(env *Env) ([]core.Estimator, error) {
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
	return []core.Estimator{ss, ssd, rsp, rsc}, nil
}

// accuracyTables runs each estimator over the τ grid and produces the
// (a) overestimation, (b) underestimation and (c) standard deviation tables
// of an accuracy figure.
func (s *Suite) accuracyTables(id, figure string, env *Env, ests []core.Estimator) ([]*Table, error) {
	truths, err := env.Truth(TauGrid...)
	if err != nil {
		return nil, err
	}
	cols := []string{"τ"}
	for _, e := range ests {
		cols = append(cols, e.Name())
	}
	over := &Table{ID: id, Title: figure + "(a): relative error of overestimations", Columns: cols,
		Notes: []string{env.Describe(), "cells: mean of (est/J − 1) over overestimating runs; '-' = never overestimated"}}
	under := &Table{ID: id, Title: figure + "(b): relative error of underestimations", Columns: cols,
		Notes: []string{"cells: mean of (est/J − 1) over underestimating runs (−100% = estimate collapsed to 0); '-' = never underestimated"}}
	std := &Table{ID: id, Title: figure + "(c): standard deviation of estimates", Columns: cols,
		Notes: []string{fmt.Sprintf("reps per cell: %d", s.cfg.Reps)}}
	for ti, tau := range TauGrid {
		rowO := []string{ftau(tau)}
		rowU := []string{ftau(tau)}
		rowS := []string{ftau(tau)}
		for ei, est := range ests {
			seed := xrand.Mix3(s.cfg.Seed, uint64(1000+ti), uint64(ei))
			cell, err := s.runCell(est, tau, truths[tau], seed)
			if err != nil {
				return nil, err
			}
			if cell.summary.NOver > 0 {
				rowO = append(rowO, fpct(cell.summary.MeanOver))
			} else {
				rowO = append(rowO, "-")
			}
			if cell.summary.NUnder > 0 {
				rowU = append(rowU, fpct(cell.summary.MeanUnder))
			} else {
				rowU = append(rowU, "-")
			}
			rowS = append(rowS, fnum(cell.summary.Std))
		}
		over.Rows = append(over.Rows, rowO)
		under.Rows = append(under.Rows, rowU)
		std.Rows = append(std.Rows, rowS)
	}
	return []*Table{over, under, std}, nil
}

// Figure2 reproduces Figure 2: accuracy and variance on DBLP.
func (s *Suite) Figure2() ([]*Table, error) {
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		return nil, err
	}
	ests, err := stdEstimators(env)
	if err != nil {
		return nil, err
	}
	return s.accuracyTables("fig2", "Figure 2", env, ests)
}

// Figure3 reproduces Figure 3: accuracy and variance on NYT.
func (s *Suite) Figure3() ([]*Table, error) {
	env, err := s.Env(dataset.NYT, 0, 0)
	if err != nil {
		return nil, err
	}
	ests, err := stdEstimators(env)
	if err != nil {
		return nil, err
	}
	return s.accuracyTables("fig3", "Figure 3", env, ests)
}

// Figure9 reproduces Figure 9: accuracy and variance on PUBMED with k = 5,
// comparing LSH-SS against RS(pop).
func (s *Suite) Figure9() ([]*Table, error) {
	env, err := s.Env(dataset.PubMed, 5, 0)
	if err != nil {
		return nil, err
	}
	data := env.Data.Vectors
	ss, err := core.NewMergedLSHSS(lsh.SingleSnapshot(env.Snap), nil)
	if err != nil {
		return nil, err
	}
	rsp, err := core.NewRSPop(data, nil, 0)
	if err != nil {
		return nil, err
	}
	return s.accuracyTables("fig9", "Figure 9", env, []core.Estimator{ss, rsp})
}
