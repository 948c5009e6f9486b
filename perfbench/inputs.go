package main

import (
	"fmt"
	"hash/fnv"

	"lshjoin"
	"lshjoin/internal/xrand"
)

// sizes fixes how much data and work a run holds. The benchmark runs at
// fullSizes; the tests shrink them.
type sizes struct {
	coordIngestN    int       // vectors preloaded for coord_ingest
	preloadBatch    int       // vectors per preload InsertBatch
	ingestBatch     int       // vectors per coord_ingest InsertBatch
	durableBase     int       // vectors in the durable store's checkpoint
	durableDelta    int       // per-insert publishes in its uncheckpointed log
	durableInserts  int       // durable_ingest inserts per run, at least
	durableChunk    int       // durable_ingest inserts between two read bursts
	durableEsts     int       // estimates in each durable_ingest read burst
	durableSearches int       // searches in each durable_ingest read burst
	checkpoint      int       // durable store's CheckpointBytes (0: the library default)
	paperN          int       // vectors in paper_eval's collection
	paperBurst      int       // searches, and inserts, after each paper_eval sweep
	relErrMax       []float64 // paper_eval's rel_err ceilings, per threshold then overall (nil: unchecked)
	minOps          int       // samples of each class in a loop block, at least
	setupReps       int       // set-ups per run, at least; setup_s is their median
	warmOps         int       // ops per class run before the clock starts
}

var fullSizes = sizes{
	coordIngestN:    20_000,
	preloadBatch:    1000,
	ingestBatch:     24,
	durableBase:     20_000,
	durableDelta:    10_000,
	durableInserts:  40_000,
	durableChunk:    1000,
	durableEsts:     20,
	durableSearches: 400,
	paperN:          20_000,
	paperBurst:      100,
	relErrMax:       paperRelErrMax,
	minOps:          100,
	setupReps:       5,
	warmOps:         3,
}

// inputs is everything a workload feeds the program, generated from the
// workload seed alone.
type inputs struct {
	seed   uint64
	corpus []lshjoin.Vector // loaded before the clock starts
	pool   []lshjoin.Vector // unseen vectors the measured phase inserts
}

// genInputs draws one DBLP-like dataset of corpus+pool vectors, the pool
// holding exactly the vectors the run's fixed op counts insert.
func genInputs(workload string, cfg config) (*inputs, error) {
	sz := cfg.sz
	var base, pool int
	switch workload {
	case "coord_ingest":
		base, pool = sz.coordIngestN, ingestSteps(cfg)*sz.ingestBatch
	case "durable_ingest":
		base, pool = sz.durableBase+sz.durableDelta, sz.warmOps+durableChunks(cfg)*sz.durableChunk
	case "paper_eval":
		base, pool = sz.paperN, (sz.warmOps+paperSweeps(cfg))*sz.paperBurst
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	// The dataset seed mixes in the workload so workloads never share data.
	vs, err := lshjoin.GenerateDataset(lshjoin.DatasetDBLP, base+pool, xrand.Mix2(cfg.seed, nameKey(workload)))
	if err != nil {
		return nil, err
	}
	return &inputs{seed: cfg.seed, corpus: vs[:base], pool: vs[base:]}, nil
}

func nameKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Op streams: every op of a run draws its estimator seed or query from its
// index on a named stream, so the op sequence is a pure function of the
// workload seed however many ops a run gets through.
const (
	streamEst = iota + 1
	streamWarm
	streamCheck
)

// opSeed is the estimator seed of op i on stream s (never 0, which would
// ask the library for an automatic seed).
func opSeed(seed uint64, s, i int) uint64 {
	return xrand.Mix3(seed, uint64(s), uint64(i)) | 1
}

// pick is the index in [0, n) that op i on stream s addresses.
func pick(seed uint64, s, i, n int) int {
	return int(xrand.Mix3(seed^0x9E3779B97F4A7C15, uint64(s), uint64(i)) % uint64(n))
}
