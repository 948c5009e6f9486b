package main

import (
	"fmt"
	"math"
	"slices"

	"lshjoin"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// paperTaus is the threshold grid of one sweep: low and high thresholds,
// as in the paper's §6 accuracy figures.
var paperTaus = []float64{0.3, 0.5, 0.7, 0.9}

// paperRelErrMax are paper_eval's rel_err ceilings at full size, one per
// threshold of paperTaus and then the overall mean: the largest value over
// seeds 1–40 plus a fifth, rounded up (DESIGN.md, "Accuracy ceilings"). A
// run above one fails its output check.
var paperRelErrMax = []float64{0.32, 1.20, 0.80, 0.54, 0.71}

// sweepSeed is the estimator seed for threshold t of a sweep.
func sweepSeed(seed uint64, t int) uint64 { return xrand.Mix2(seed, uint64(t)) | 1 }

// sweepRate is paper_eval's sweeps per second of run length: about the
// rate the loop runs at on a 2-vCPU VM, so a run at --seconds 30 holds 450
// sweeps, four blocks of over 100.
const sweepRate = 15

// paperSweeps is the fixed sweep count of a paper_eval run.
func paperSweeps(cfg config) int { return opCount(cfg, sweepRate, cfg.sz.minOps) }

// runPaper: the paper's §6 setting. One est op is a sweep that builds a
// fresh LSH-SS estimator at the paper's defaults (m_H = m_L = n, δ = log₂ n)
// per threshold. Each step of the loop is a sweep followed by a burst of
// searches on the same index and a burst of single inserts into a second
// collection built like the first, so the sweeps keep estimating the data
// the truth was computed on. The bursts spread both short classes over
// the whole run, as the sweeps are, and keep the few searches that find
// their caches as a sweep left them too rare to reach p90.
func runPaper(cfg config, in *inputs) (*runResult, error) {
	r := newResult()
	// Ground truth: one exact pass, excluded from set-up.
	truth, err := exactjoin.NewJoiner(in.corpus).Counts(paperTaus)
	if err != nil {
		return nil, err
	}
	for t, j := range truth {
		if j == 0 {
			return nil, fmt.Errorf("exact join size at τ=%v is 0; rel_err undefined", paperTaus[t])
		}
	}
	var c *lshjoin.Collection
	for {
		err := r.timeSetup(func() error {
			var err error
			c, err = lshjoin.New(in.corpus, lshjoin.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		if !r.moreSetups(cfg) {
			break
		}
	}
	side, err := lshjoin.New(in.corpus, lshjoin.Options{})
	if err != nil {
		return nil, err
	}
	sweep := func(seed uint64) ([]float64, error) {
		ests := make([]float64, len(paperTaus))
		for t, tau := range paperTaus {
			e, err := c.Estimator(lshjoin.AlgoLSHSS, lshjoin.WithEstimatorSeed(sweepSeed(seed, t)))
			if err != nil {
				return nil, err
			}
			if ests[t], err = e.Estimate(tau); err != nil {
				return nil, err
			}
		}
		return ests, nil
	}
	n, next := len(in.corpus), 0 // next: pool index of the next insert
	step := func(i int, warm bool) {
		stream := streamEst
		if warm {
			stream = streamWarm
		}
		r.timed(opRec{kind: "est", warm: warm, arg: i, seed: opSeed(in.seed, stream, i)}, func(o *opRec) error {
			var err error
			o.ests, err = sweep(o.seed)
			return err
		})
		B := cfg.sz.paperBurst
		for b := 0; b < B; b++ {
			q := pick(in.seed, stream, i*B+b, n)
			r.timed(opRec{kind: "search", warm: warm, arg: q}, func(o *opRec) error {
				o.ids = c.SearchSimilar(in.corpus[q], readTau)
				if !slices.Contains(o.ids, q) {
					r.failf("paper_eval: search for indexed vector %d did not return it", q)
				}
				return nil
			})
		}
		for b := 0; b < B; b++ {
			p := next
			next++
			r.timed(opRec{kind: "insert", warm: warm, arg: p, n: 1, pool: true}, func(o *opRec) error {
				o.ids = []int{side.Insert(in.pool[p])}
				if o.ids[0] != n+p {
					r.failf("paper_eval: Insert returned id %d, want %d", o.ids[0], n+p)
				}
				return nil
			})
		}
	}
	for i := 0; i < cfg.sz.warmOps; i++ {
		step(i, true)
	}
	nSweeps := paperSweeps(cfg)
	if err := r.loop(nSweeps, blocksFor(cfg.sz, nSweeps), nil, func(i int) { step(i, false) }); err != nil {
		return nil, err
	}

	// rel_err over the first minOps sweeps, so it is a pure function of the
	// seed however long the run.
	perTau := make([]float64, len(paperTaus))
	var sweeps []opRec
	for _, o := range r.log {
		if o.kind == "est" && !o.warm && len(o.ests) == len(paperTaus) && len(sweeps) < cfg.sz.minOps {
			sweeps = append(sweeps, o)
			for t, est := range o.ests {
				perTau[t] += math.Abs(est-float64(truth[t])) / float64(truth[t])
			}
		}
	}
	for t := range perTau {
		perTau[t] /= float64(max(len(sweeps), 1))
	}
	overall := mean(perTau)
	r.report = append(r.report, metric{name: "rel_err", unit: "ratio", value: overall,
		note: fmt.Sprintf("mean |Ĵ−J|/J over %d sweeps; J(%v) = %v", len(sweeps), paperTaus, truth)})
	for t, tau := range paperTaus {
		r.report = append(r.report, metric{name: fmt.Sprintf("rel_err_%g", tau), unit: "ratio", value: perTau[t]})
	}
	for _, f := range relErrFails(perTau, overall, cfg.sz.relErrMax) {
		r.failf("paper_eval: %s", f)
	}
	// A repeated sweep with the same seeds returns identical estimates.
	for _, o := range sweeps[:min(3, len(sweeps))] {
		if again, err := sweep(o.seed); err != nil || !sameFloats(again, o.ests) {
			r.failf("paper_eval: repeated sweep %d gave %v (%v), first %v", o.arg, again, err, o.ests)
		}
	}

	r.heapMB = liveHeapMB()
	r.finish()
	return r, nil
}

// relErrFails names every rel_err above its ceiling: ceil holds one per
// threshold of paperTaus, then one for the overall mean. A nil ceil checks
// nothing.
func relErrFails(perTau []float64, overall float64, ceil []float64) []string {
	if ceil == nil {
		return nil
	}
	var out []string
	for t, e := range perTau {
		if e > ceil[t] {
			out = append(out, fmt.Sprintf("rel_err at τ=%g is %.4f, above its ceiling %.4f", paperTaus[t], e, ceil[t]))
		}
	}
	if last := ceil[len(paperTaus)]; overall > last {
		out = append(out, fmt.Sprintf("rel_err is %.4f, above its ceiling %.4f", overall, last))
	}
	return out
}

// replayPaper rebuilds both indexes as New does and replays every op
// through lsh and core directly.
func replayPaper(_ config, in *inputs, pub *runResult) (*traceResult, error) {
	rec, tr := newRecorder(), newTrace()
	idx, err := lsh.BuildSigned(in.corpus, lsh.NewSimHash(1), 20, 1, lsh.SignConfig{})
	if err != nil {
		return nil, err
	}
	side, err := lsh.BuildSigned(in.corpus, lsh.NewSimHash(1), 20, 1, lsh.SignConfig{})
	if err != nil {
		return nil, err
	}
	var cand, res int
	do := func(o opRec, parent, op int32) ([]float64, []int, error) {
		switch o.kind {
		case "est":
			ests := make([]float64, len(paperTaus))
			for t, tau := range paperTaus {
				d, m, err := tracedEstimate(rec, lsh.SingleSnapshot(idx.Snapshot()), tau, sweepSeed(o.seed, t), parent, op)
				if err != nil {
					return nil, nil, err
				}
				tr.addDetail(o, d, m)
				ests[t] = d.Estimate
			}
			return ests, nil, nil
		case "search":
			return nil, ints(tracedSearch(rec, idx.Snapshot(), in.corpus[o.arg], readTau, parent, op, &cand, &res)), nil
		default:
			sp := rec.begin("lsh.insert", parent, op)
			id := side.Insert(in.pool[o.arg])
			rec.end(sp)
			return nil, []int{id}, nil
		}
	}
	replayLog(pub, rec, tr, do, func() {}, func() {})
	if cand > 0 {
		tr.values["lsh.search_yield"] = float64(res) / float64(cand)
	}
	tr.finish(pub)
	return tr, nil
}
