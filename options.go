package lshjoin

import (
	"errors"
	"fmt"

	"lshjoin/internal/lsh"
)

// ErrInvalidOptions reports an Options value no constructor can honor:
// negative counts, an unknown measure, out-of-range shard counts, or fields
// conflicting with an on-disk store. Test with errors.Is; the error text
// names the offending field.
var ErrInvalidOptions = errors.New("lshjoin: invalid options")

// normalized validates opt and fills defaults, in that order — so explicit
// garbage (a negative count) is rejected rather than silently replaced,
// while the zero value of every field still means "use the default". The
// in-memory constructors (New, NewSharded, NewCrossJoin) route through it
// and report the same ErrInvalidOptions for the same mistakes.
func (o Options) normalized() (Options, error) {
	o, err := o.validated()
	if err != nil {
		return o, err
	}
	o.fillDefaults()
	if o.Shards > lsh.MaxShards {
		return o, fmt.Errorf("%w: Shards = %d exceeds the maximum %d", ErrInvalidOptions, o.Shards, lsh.MaxShards)
	}
	return o, nil
}

// validated rejects impossible field values but leaves zeros alone, so
// Open/OpenSharded can still tell "unset, adopt the stored value" apart
// from an explicit assertion.
func (o Options) validated() (Options, error) {
	if o.K < 0 {
		return o, fmt.Errorf("%w: K = %d is negative", ErrInvalidOptions, o.K)
	}
	if o.Tables < 0 {
		return o, fmt.Errorf("%w: Tables = %d is negative", ErrInvalidOptions, o.Tables)
	}
	if o.PublishEvery < 0 {
		return o, fmt.Errorf("%w: PublishEvery = %d is negative", ErrInvalidOptions, o.PublishEvery)
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("%w: Shards = %d is negative", ErrInvalidOptions, o.Shards)
	}
	switch o.Measure {
	case CosineSimilarity, JaccardSimilarity:
	default:
		return o, fmt.Errorf("%w: unknown measure %d", ErrInvalidOptions, o.Measure)
	}
	if o.SignPanelBytes < 0 {
		return o, fmt.Errorf("%w: SignPanelBytes = %d is negative", ErrInvalidOptions, o.SignPanelBytes)
	}
	if o.CheckpointBytes < 0 {
		return o, fmt.Errorf("%w: CheckpointBytes = %d is negative", ErrInvalidOptions, o.CheckpointBytes)
	}
	return o, nil
}

// signConfig translates the public signing knobs into the internal batch
// engine configuration.
func (o Options) signConfig() lsh.SignConfig {
	return lsh.SignConfig{PanelBytes: o.SignPanelBytes}
}
