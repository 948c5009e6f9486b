package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }

func TestNames(t *testing.T) {
	r := newResult()
	r.setup, r.loopOps, r.loopDur, r.heapMB = []float64{1}, 1, time.Second, 1
	r.blocks = []loopBlock{{lo: 0, hi: 1, dur: time.Second}}
	for _, c := range r.classes {
		c.lat, c.blk = seq(100), make([]int, 100)
	}
	e2e, err := endToEnd(r)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(e2e, newTrace().layerMetrics()...) {
		names = append(names, m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]", m.name, m.unit)
		}
	}
	for _, n := range names {
		if !validName(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]", n)
		}
	}
	if !validName("heap_mb") || validName("µs") || validName("a b") || validName("-x") {
		t.Error("validName accepts or refuses the wrong names")
	}

	// BENCHMARK.json declares exactly what the program reports.
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if want := names[:len(workloads)]; !slices.Equal(declared, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", declared, want)
	}
	for i, m := range e2e {
		if i >= len(bf.EndToEnd) || bf.EndToEnd[i].Name != m.name || bf.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end metric %d: program %s (%s), BENCHMARK.json disagrees", i, m.name, m.unit)
		}
	}
	if len(bf.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, program reports %d", len(bf.EndToEnd), len(e2e))
	}
	for i, d := range layerDefs {
		if i >= len(bf.PerLayer) || bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit || bf.PerLayer[i].Better != d.better {
			t.Errorf("per-layer metric %d: program %s (%s, %s), BENCHMARK.json disagrees", i, d.name, d.unit, d.better)
		}
	}
	if len(bf.PerLayer) != len(layerDefs) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, program reports %d", len(bf.PerLayer), len(layerDefs))
	}
}
