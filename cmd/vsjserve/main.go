// Command vsjserve runs the network shard serving layer: shard servers
// owning one LSH index each, and a coordinator running the paper's
// estimators over them — bit-equal to the in-process sharded collection.
//
// Usage:
//
//	vsjserve serve -addr :7801 -k 20 -tables 1 -seed 1 [-dir shard0/] [-jaccard]
//	vsjserve coordinate -shards host:7801,host:7802 -tau 0.5,0.8 -algo lsh-ss [-exact] [-verify]
//	vsjserve loadgen -shards host:7801,host:7802 -n 20000 -duration 10s -workers 4 [-out BENCH_serve.json]
//
// serve owns one shard; run S of them (one per shard) and hand all S
// addresses to coordinate or loadgen. With -dir the shard is durable:
// every version published while serving persists, and restarting on the
// same directory recovers it. loadgen preloads -n dataset vectors through
// the coordinator, then drives a mixed estimate/insert/search workload and
// reports throughput and latency percentiles (JSON with -out; the
// committed BENCH_serve.json baseline comes from this mode).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lshjoin"
	"lshjoin/internal/kernel"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: vsjserve serve|coordinate|loadgen [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:], os.Stdout, nil)
	case "coordinate":
		err = runCoordinate(os.Args[2:], os.Stdout)
	case "loadgen":
		err = runLoadgen(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown mode %q (serve|coordinate|loadgen)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsjserve:", err)
		os.Exit(1)
	}
}

// runServe starts one shard server and blocks until SIGINT/SIGTERM (or a
// close of the test-supplied stop channel), then checkpoints and exits.
func runServe(args []string, stdout io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7801", "listen address")
		k       = fs.Int("k", 20, "LSH hash functions per table")
		tables  = fs.Int("tables", 1, "LSH tables ℓ")
		seed    = fs.Uint64("seed", 1, "hashing seed (must match across shards)")
		jaccard = fs.Bool("jaccard", false, "use Jaccard similarity instead of cosine")
		dir     = fs.String("dir", "", "durable store directory (created or recovered)")
		publish = fs.Int("publish-every", 0, "publish a version every N ingested vectors (0: on demand)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := lshjoin.Options{K: *k, Tables: *tables, Seed: *seed, Dir: *dir, PublishEvery: *publish}
	if *jaccard {
		opt.Measure = lshjoin.JaccardSimilarity
	}
	srv, err := lshjoin.NewShardServer(opt)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	fmt.Fprintf(stdout, "serving shard on %s (k=%d, ℓ=%d, n=%d)\n", ln.Addr(), srv.K(), srv.Tables(), srv.N())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-stop:
	case err := <-done:
		srv.Close()
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return <-done
}

// runCoordinate connects to the shard servers and answers estimates over
// the distributed corpus.
func runCoordinate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	var (
		shards  = fs.String("shards", "", "comma-separated shard server addresses (required)")
		tauList = fs.String("tau", "0.5,0.7,0.9", "comma-separated thresholds")
		algo    = fs.String("algo", string(lshjoin.AlgoLSHSS), "estimation algorithm")
		reps    = fs.Int("reps", 5, "estimates per threshold (reports mean)")
		seed    = fs.Uint64("estimator-seed", 0, "estimator seed (0: fresh randomness per estimator)")
		exact   = fs.Bool("exact", false, "also compute the exact join size over the fetched corpus")
		verify  = fs.Bool("verify", false, "cross-check server-side sampling against local reconstruction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := parseShards(*shards)
	if err != nil {
		return err
	}
	taus, err := parseTaus(*tauList)
	if err != nil {
		return err
	}
	rem, err := lshjoin.Connect(addrs, lshjoin.Options{})
	if err != nil {
		return err
	}
	defer rem.Close()
	n, err := rem.N()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "coordinating %d shards: n=%d, k=%d, ℓ=%d\n", rem.Shards(), n, rem.K(), rem.Tables())
	if *verify {
		for s := 0; s < rem.Shards(); s++ {
			for t := 0; t < rem.Tables(); t++ {
				if err := rem.VerifyShardSampling(s, t, 64, *seed+1); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stdout, "sampling verified: every shard reproduces the coordinator's draws\n")
	}
	for _, tau := range taus {
		var opts []lshjoin.EstimatorOption
		if *seed != 0 {
			opts = append(opts, lshjoin.WithEstimatorSeed(*seed))
		}
		est, err := rem.Estimator(lshjoin.Algorithm(*algo), opts...)
		if err != nil {
			return err
		}
		var sum float64
		t0 := time.Now()
		for r := 0; r < *reps; r++ {
			v, err := est.Estimate(tau)
			if err != nil {
				return err
			}
			sum += v
		}
		per := time.Since(t0) / time.Duration(*reps)
		line := fmt.Sprintf("τ=%.2f  %s ≈ %.0f  (%v/estimate, mean of %d)",
			tau, est.Name(), sum/float64(*reps), per.Round(time.Microsecond), *reps)
		if *exact {
			t1 := time.Now()
			truth, err := rem.ExactJoinSize(tau)
			if err != nil {
				return err
			}
			line += fmt.Sprintf("  exact = %d (%v)", truth, time.Since(t1).Round(time.Millisecond))
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// serveBench is the loadgen report, the committed BENCH_serve.json shape.
// CPU and Kernel name the host and the signing kernels (kernel.Impl) the
// loadgen process ran on; the shard servers are expected to share both.
type serveBench struct {
	GoVersion  string            `json:"go_version"`
	CPU        string            `json:"cpu"`
	Kernel     string            `json:"kernel"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Shards     int               `json:"shards"`
	Workers    int               `json:"workers"`
	Dataset    string            `json:"dataset"`
	Preload    preloadStats      `json:"preload"`
	Duration   float64           `json:"duration_sec"`
	Ops        map[string]opStat `json:"ops"`
}

type preloadStats struct {
	Vectors       int     `json:"vectors"`
	Seconds       float64 `json:"seconds"`
	VectorsPerSec float64 `json:"vectors_per_sec"`
}

type opStat struct {
	Count     int64   `json:"count"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// runLoadgen preloads the corpus through the coordinator, then drives a
// mixed workload against the shard servers and reports the baseline.
func runLoadgen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		shards   = fs.String("shards", "", "comma-separated shard server addresses (required)")
		dataset  = fs.String("dataset", "dblp", "synthetic corpus: dblp | nyt | pubmed")
		n        = fs.Int("n", 20000, "vectors to preload")
		duration = fs.Duration("duration", 10*time.Second, "mixed-workload run time")
		workers  = fs.Int("workers", 4, "concurrent workload workers")
		mix      = fs.String("mix", "estimate=1,insert=8,search=4", "op weights")
		tau      = fs.Float64("tau", 0.8, "similarity threshold for estimate/search ops")
		seed     = fs.Uint64("seed", 7, "dataset and workload seed")
		out      = fs.String("out", "", "write the JSON report here (default: stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs, err := parseShards(*shards)
	if err != nil {
		return err
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}
	if *n < 2 || *workers < 1 {
		return fmt.Errorf("-n must be ≥ 2 and -workers ≥ 1")
	}
	vecs, err := lshjoin.GenerateDataset(lshjoin.DatasetKind(*dataset), 2*(*n), *seed)
	if err != nil {
		return err
	}
	preloadVecs, extraVecs := vecs[:*n], vecs[*n:]
	rem, err := lshjoin.Connect(addrs, lshjoin.Options{})
	if err != nil {
		return err
	}
	defer rem.Close()

	t0 := time.Now()
	if _, err := rem.InsertBatch(preloadVecs); err != nil {
		return err
	}
	if _, err := rem.N(); err != nil { // publish + warm the snapshot cache
		return err
	}
	preSec := time.Since(t0).Seconds()
	fmt.Fprintf(stdout, "preloaded %d vectors into %d shards in %.2fs (%.0f vectors/sec)\n",
		*n, rem.Shards(), preSec, float64(*n)/preSec)

	// One coordinator (connection set) per worker: the protocol serializes
	// calls per connection, so workload parallelism needs parallel clients —
	// exactly how S independent application servers would drive the shards.
	rems := make([]*lshjoin.RemoteCollection, *workers)
	for w := range rems {
		if rems[w], err = lshjoin.Connect(addrs, lshjoin.Options{}); err != nil {
			return err
		}
		defer rems[w].Close()
	}

	type opKind int
	const (
		opEstimate opKind = iota
		opInsert
		opSearch
		opKinds
	)
	names := [opKinds]string{"estimate", "insert", "search"}
	cum := make([]int, opKinds) // cumulative weights: estimate, insert, search
	total := 0
	for i, name := range names {
		total += weights[name]
		cum[i] = total
	}
	if total == 0 {
		return fmt.Errorf("-mix has no positive weights")
	}

	lat := make([][opKinds][]time.Duration, *workers)
	var failures atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(*seed) + int64(w)))
			rc := rems[w]
			for time.Now().Before(deadline) {
				pick := rng.Intn(total)
				kind := opEstimate
				for int(kind) < len(cum) && pick >= cum[kind] {
					kind++
				}
				t0 := time.Now()
				var err error
				switch kind {
				case opEstimate:
					var est lshjoin.Estimator
					if est, err = rc.Estimator(lshjoin.AlgoLSHSS, lshjoin.WithSampleBudget(256, 256)); err == nil {
						_, err = est.Estimate(*tau)
					}
				case opInsert:
					_, err = rc.Insert(extraVecs[rng.Intn(len(extraVecs))])
				case opSearch:
					_, err = rc.SearchSimilar(vecs[rng.Intn(len(vecs))], *tau)
				}
				if err != nil {
					failures.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				lat[w][kind] = append(lat[w][kind], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d workload ops failed; first: %v", n, firstErr)
	}

	bench := serveBench{
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Kernel:     kernel.Impl,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     rem.Shards(),
		Workers:    *workers,
		Dataset:    fmt.Sprintf("%s n=%d mix=%s tau=%.2f", *dataset, *n, *mix, *tau),
		Preload:    preloadStats{Vectors: *n, Seconds: preSec, VectorsPerSec: float64(*n) / preSec},
		Duration:   duration.Seconds(),
		Ops:        make(map[string]opStat, opKinds),
	}
	for kind := opEstimate; kind < opKinds; kind++ {
		var all []time.Duration
		for w := range lat {
			all = append(all, lat[w][kind]...)
		}
		if len(all) == 0 {
			continue
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) float64 {
			return float64(all[int(p*float64(len(all)-1))].Microseconds()) / 1e3
		}
		st := opStat{
			Count:     int64(len(all)),
			OpsPerSec: float64(len(all)) / duration.Seconds(),
			P50Ms:     pct(0.50), P90Ms: pct(0.90), P99Ms: pct(0.99),
		}
		bench.Ops[names[kind]] = st
		fmt.Fprintf(stdout, "%-9s %7d ops  %8.1f ops/sec  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms\n",
			names[kind], st.Count, st.OpsPerSec, st.P50Ms, st.P90Ms, st.P99Ms)
	}
	if *out != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return nil
}

// cpuModel returns the host's CPU model name from /proc/cpuinfo, or the
// architecture where that file is unavailable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func parseShards(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-shards is required")
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards names no addresses")
	}
	return out, nil
}

func parseTaus(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", p, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thresholds given")
	}
	return out, nil
}

func parseMix(s string) (map[string]int, error) {
	out := map[string]int{"estimate": 0, "insert": 0, "search": 0}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		if _, known := out[name]; !known {
			return nil, fmt.Errorf("unknown op %q in -mix (estimate|insert|search)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		out[name] = w
	}
	return out, nil
}
