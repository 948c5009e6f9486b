package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tiny_suite.golden from the current code")

// durationToken matches a rendered time.Duration, with the "<" the runtime
// table puts before its floor, so wall-time cells compare equal across
// runs and hosts.
var durationToken = regexp.MustCompile(`<?(\d+(\.\d+)?(h|m))*\d+(\.\d+)?(ns|µs|ms|s)`)

// TestRunAllGolden pins every table vsjbench -all prints at tinySuite scale:
// each estimate, error summary and count, with wall times masked. The
// tables are seeded, and every estimator draws the same stream for any
// GOMAXPROCS, so the rendered text is a function of the code alone. Run
// with -update to record a deliberate change.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment run")
	}
	tables, err := tinySuite().RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		masked := &Table{ID: tab.ID, Title: mask(tab.Title), Columns: tab.Columns}
		for _, row := range tab.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = mask(c)
			}
			masked.Rows = append(masked.Rows, cells)
		}
		for _, n := range tab.Notes {
			masked.Notes = append(masked.Notes, mask(n))
		}
		if err := masked.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "tiny_suite.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("rendered suite differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

func mask(s string) string { return durationToken.ReplaceAllString(s, "<dur>") }
