package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lshjoin"
)

// startShards runs S in-process shard servers via runServe on free loopback
// ports and returns the comma-joined address list.
func startShards(t *testing.T, S int) string {
	t.Helper()
	addrs := make([]string, S)
	for s := 0; s < S; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[s] = ln.Addr().String()
		ln.Close() // runServe re-listens on the probed address
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func(addr string) {
			done <- runServe([]string{"-addr", addr, "-k", "6", "-tables", "2", "-seed", "5"},
				os.Stderr, stop)
		}(addrs[s])
		t.Cleanup(func() {
			close(stop)
			if err := <-done; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	// Wait for every listener to come up.
	for _, addr := range addrs {
		for i := 0; ; i++ {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if i > 100 {
				t.Fatalf("shard %s never came up: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return strings.Join(addrs, ",")
}

func TestServeCoordinateLoadgen(t *testing.T) {
	shards := startShards(t, 2)

	var pre strings.Builder
	out := filepath.Join(t.TempDir(), "bench.json")
	err := runLoadgen([]string{
		"-shards", shards, "-n", "400", "-duration", "300ms", "-workers", "2",
		"-mix", "estimate=1,insert=4,search=2", "-out", out,
	}, &pre)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, pre.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bench serveBench
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Shards != 2 || bench.Preload.Vectors != 400 || len(bench.Ops) == 0 || bench.CPU == "" || bench.Kernel == "" {
		t.Fatalf("bench report: %+v", bench)
	}
	for name, st := range bench.Ops {
		if st.Count <= 0 || st.OpsPerSec <= 0 || st.P99Ms < st.P50Ms {
			t.Fatalf("op %s stats: %+v", name, st)
		}
	}

	var co strings.Builder
	err = runCoordinate([]string{
		"-shards", shards, "-tau", "0.8", "-reps", "2", "-exact", "-verify",
		"-estimator-seed", "41",
	}, &co)
	if err != nil {
		t.Fatalf("coordinate: %v\n%s", err, co.String())
	}
	if !strings.Contains(co.String(), "sampling verified") || !strings.Contains(co.String(), "exact = ") {
		t.Fatalf("coordinate output:\n%s", co.String())
	}

	// A fresh coordinator over the grown corpus still estimates (the cache
	// starts cold and the workload-inserted vectors are all visible).
	rem, err := lshjoin.Connect(strings.Split(shards, ","), lshjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	n, err := rem.N()
	if err != nil {
		t.Fatal(err)
	}
	if n < 400 {
		t.Fatalf("n = %d after preloading 400", n)
	}
	est, err := rem.Estimator(lshjoin.AlgoLSHSS, lshjoin.WithEstimatorSeed(91))
	if err != nil {
		t.Fatal(err)
	}
	v, err := est.Estimate(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if max := float64(n) * float64(n-1) / 2; v < 0 || v > max {
		t.Fatalf("estimate %v outside [0, %v]", v, max)
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := parseShards(""); err == nil {
		t.Error("empty -shards accepted")
	}
	if addrs, err := parseShards("a:1, b:2 ,"); err != nil || len(addrs) != 2 {
		t.Errorf("parseShards: %v %v", addrs, err)
	}
	if _, err := parseMix("estimate=1,bogus=2"); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := parseMix("estimate"); err == nil {
		t.Error("weightless entry accepted")
	}
	m, err := parseMix("estimate=2,search=0")
	if err != nil || m["estimate"] != 2 || m["search"] != 0 || m["insert"] != 0 {
		t.Errorf("parseMix: %v %v", m, err)
	}
	if _, err := parseTaus("0.5,x"); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestRunServeDurableDir(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- runServe([]string{"-addr", addr, "-k", "6", "-seed", "5", "-dir", dir}, os.Stderr, stop)
		}()
		var rem *lshjoin.RemoteCollection
		for i := 0; ; i++ {
			rem, err = lshjoin.Connect([]string{addr}, lshjoin.Options{})
			if err == nil {
				break
			}
			if i > 100 {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if round == 0 {
			vecs, err := lshjoin.GenerateDataset(lshjoin.DatasetDBLP, 32, 7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rem.InsertBatch(vecs); err != nil {
				t.Fatal(err)
			}
		}
		n, err := rem.N()
		if err != nil {
			t.Fatal(err)
		}
		if n != 32 {
			t.Fatalf("round %d: n = %d, want 32", round, n)
		}
		rem.Close()
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
