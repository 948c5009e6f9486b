package lshjoin

import (
	"errors"
	"testing"

	"lshjoin/internal/lsh"
)

// Every constructor must reject the same broken Options with the same
// sentinel, so callers can errors.Is(err, ErrInvalidOptions) regardless of
// which entry point they used.
func TestInvalidOptionsSentinel(t *testing.T) {
	vecs := fixtureVectors(t, 16)
	left, right := vecs[:8], vecs[8:]

	bad := []struct {
		name string
		opt  Options
	}{
		{"negative_k", Options{K: -1}},
		{"negative_tables", Options{Tables: -2}},
		{"negative_publish_every", Options{PublishEvery: -1}},
		{"negative_shards", Options{Shards: -3}},
		{"unknown_measure", Options{Measure: Measure(42)}},
		{"too_many_shards", Options{Shards: lsh.MaxShards + 1}},
		{"negative_sign_panel", Options{SignPanelBytes: -1}},
		{"negative_checkpoint_bytes", Options{CheckpointBytes: -1}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(vecs, tc.opt); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("New: got %v, want ErrInvalidOptions", err)
			}
			if _, err := NewSharded(vecs, tc.opt); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("NewSharded: got %v, want ErrInvalidOptions", err)
			}
			if _, err := NewCrossJoin(left, right, tc.opt); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("NewCrossJoin: got %v, want ErrInvalidOptions", err)
			}
		})
	}
}

// Restrictions specific to one constructor still wrap the shared sentinel.
func TestInvalidOptionsConstructorSpecific(t *testing.T) {
	vecs := fixtureVectors(t, 16)
	left, right := vecs[:8], vecs[8:]

	if _, err := NewCrossJoin(left, right, Options{Tables: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("cross join with Tables=2: got %v, want ErrInvalidOptions", err)
	}
}

// Valid options keep working through the shared validation path.
func TestValidOptionsStillAccepted(t *testing.T) {
	vecs := fixtureVectors(t, 32)
	if _, err := New(vecs, Options{K: 8, Tables: 2, Seed: 5, PublishEvery: 3}); err != nil {
		t.Fatalf("New rejected valid options: %v", err)
	}
	if _, err := NewSharded(vecs, Options{Shards: 3, Measure: JaccardSimilarity}); err != nil {
		t.Fatalf("NewSharded rejected valid options: %v", err)
	}
	if _, err := New(vecs, Options{SignPanelBytes: 1 << 12}); err != nil {
		t.Fatalf("New rejected panel-streamed signing: %v", err)
	}
}
