package main

import (
	"testing"
	"time"
)

// testSizes runs every workload at a few thousand vectors. The durable
// store checkpoints at 32 KiB so a short run still crosses a background
// checkpoint.
var testSizes = sizes{
	coordIngestN:    2000,
	preloadBatch:    500,
	ingestBatch:     24,
	durableBase:     2000,
	durableDelta:    300,
	durableInserts:  1000,
	durableChunk:    100,
	durableEsts:     2,
	durableSearches: 10,
	checkpoint:      32 << 10,
	paperN:          2000,
	paperBurst:      5,
	minOps:          20,
	setupReps:       1,
	warmOps:         2,
}

// TestReplayMatchesPublicAPI is the drift guard of the traced run: for
// every workload, the replay through the layers' entry points must give
// the answers the public API gave, bit for bit. If lshjoin changes how it
// composes the layers, this fails instead of the trace silently timing a
// path the program no longer takes.
func TestReplayMatchesPublicAPI(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Three seconds of run length give every loop but durable_ingest's
			// (one block by design) at least two blocks, so coord_ingest
			// replays more than one topology.
			cfg := config{seed: 3, dur: 3 * time.Second, trace: true, workdir: t.TempDir(), sz: testSizes}
			in, err := genInputs(w.name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pub, err := w.run(cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range pub.fails {
				t.Errorf("output check: %s", f)
			}
			tr, err := w.replay(cfg, in, pub)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tr.mismatches {
				t.Errorf("replay: %s", m)
			}
			replayed := 0
			for _, o := range pub.log {
				if !o.dropped {
					replayed++
				}
			}
			if tr.attempted != replayed || tr.failed != 0 {
				t.Errorf("replayed %d of %d ops, %d failed", tr.attempted, replayed, tr.failed)
			}
			for _, c := range classNames {
				if pub.classes[c].attempted == 0 {
					t.Errorf("class %s never ran", c)
				}
			}
			if len(pub.blocks) < 2 && w.name != "durable_ingest" {
				t.Errorf("the loop ran %d blocks, want at least 2", len(pub.blocks))
			}
		})
	}
}
