// Command perfbench is the repository's benchmark: one single-client
// closed-loop workload per run, driven through the public lshjoin API, with
// every end-to-end metric printed by name and unit and every output
// checked. With -trace 1 it then replays the same ops through each layer's
// exported entry points and reports per-layer numbers instead. See
// DESIGN.md in this directory for the workloads, the metrics and the
// steadiness record.
//
//	bash perfbench/run.sh --workload coord_ingest --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"lshjoin/internal/kernel"
)

// workload is one traffic mix and topology.
type workload struct {
	name   string
	gogc   int // the GOGC a run pins
	run    func(config, *inputs) (*runResult, error)
	replay func(config, *inputs, *runResult) (*traceResult, error)
}

// Every workload runs at the default GOGC but coord_ingest. Its shard
// servers share the coordinator's heap, and each read decodes fresh shard
// snapshots, about 25 MB of garbage, so at 100 a collection starts every
// 1.2–1.5 steps. From run to run of one seed, 6–13% of its inserts landed
// in one and took 2–4 times as long, and insert_p90_ms flipped between
// the body of the distribution and that tail. At 200 the share is 3–5%
// (DESIGN.md, steadiness record).
var workloads = []workload{
	{"coord_ingest", 200, runCoordIngest, replayCoord},
	{"durable_ingest", 100, runDurable, replayDurable},
	{"paper_eval", 100, runPaper, replayPaper},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Int("seconds", 10, "length of the measured closed loop, in seconds")
	trace := fs.Int("trace", 0, "1: replay the ops through the layers and report per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for durable stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds ≥ 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, dur: time.Duration(*secs) * time.Second, trace: *trace == 1, workdir: *workdir, sz: fullSizes}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// GOMAXPROCS is pinned to nproc and recorded in the fingerprint. At 1
	// the estimator's parallel sampling would not show, and a short RPC op
	// waits behind the GC's fractional mark worker on the only P, which
	// made coord_read's search_p90 flip between 0.4 and 4.5 ms from run to
	// run (DESIGN.md, steadiness record).
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The collector's settings are pinned the same way, whatever the
	// environment holds.
	debug.SetGCPercent(w.gogc)
	debug.SetMemoryLimit(math.MaxInt64)
	out, err := bench(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload, printing the human-readable report to out and
// returning the result line.
func bench(w workload, cfg config, out io.Writer) (*result, error) {
	steal0 := stealTicks()
	in, err := genInputs(w.name, cfg)
	if err != nil {
		return nil, err
	}
	pub, err := w.run(cfg, in)
	if err != nil {
		return nil, err
	}
	var tr *traceResult
	if cfg.trace {
		if tr, err = w.replay(cfg, in, pub); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	fp := fingerprint(cfg, w, pub, stealTicks()-steal0)
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	fmt.Fprintf(out, "workload %s seed %d: closed loop, 1 client, %d ops in %.2fs\n", w.name, cfg.seed, pub.loopOps, pub.loopDur.Seconds())
	res := &result{Correct: len(pub.fails) == 0, Metrics: map[string]jsonMetric{}}
	for _, c := range classNames {
		cl := pub.classes[c]
		fmt.Fprintf(out, "  class %-6s samples %6d  failed/attempted %d/%d\n", c, len(cl.lat), cl.failed, cl.attempted)
		res.Attempted += cl.attempted
		res.Failed += cl.failed
	}
	e2e, err := endToEnd(pub)
	if err != nil {
		return nil, err
	}
	for _, m := range append(e2e, pub.report...) {
		fmt.Fprintf(out, "  %-20s %14.6g %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, f := range pub.fails {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", f)
	}
	metrics := e2e
	if cfg.trace {
		fmt.Fprintf(out, "traced replay: %d ops, %d failed, %d spans\n", tr.attempted, tr.failed, len(tr.spans))
		for _, c := range classNames {
			t, u := tr.classes[c].lat, pub.classes[c].lat
			fmt.Fprintf(out, "  tracing overhead %-6s p50 traced %.4g ms − untraced %.4g ms\n", c, median(t), median(u))
		}
		metrics = tr.layerMetrics()
		for _, m := range metrics {
			fmt.Fprintf(out, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
		for _, f := range tr.mismatches {
			fmt.Fprintf(out, "  REPLAY MISMATCH: %s\n", f)
		}
		res.Correct = res.Correct && len(tr.mismatches) == 0
		res.Attempted, res.Failed = tr.attempted, tr.failed
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.tsv", w.name, cfg.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "  spans written to %s\n", path)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// fingerprint describes the host and build a run measured on, so a noisy
// host can be told from a slow commit.
func fingerprint(cfg config, w workload, pub *runResult, steal int64) string {
	fsType := pub.fsType
	if fsType == "" {
		fsType = "n/a"
	}
	return fmt.Sprintf("cpu=%q kernel=%s go=%s gomaxprocs=%d gogc=%d nproc=%d durable_fs=%s seed=%d steal_ticks=%d",
		cpuModel(), kernel.Impl, runtime.Version(), runtime.GOMAXPROCS(0), w.gogc, runtime.NumCPU(), fsType, cfg.seed, steal)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealTicks reads the host's cumulative steal time from /proc/stat
// (-1 when unavailable).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}
