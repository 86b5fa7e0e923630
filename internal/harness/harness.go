// Package harness reproduces every figure of the paper's evaluation
// (§4): it synthesizes the workload suites, drives the trace-driven
// simulator across all six placement policies and both GC victim
// policies, and renders paper-style tables and CDF series. Each FigN
// function regenerates the data behind the corresponding figure.
package harness

import (
	"fmt"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/trace"
	"adapt/internal/workload"
)

// PolicyADAPT is the name of the paper's contribution in results.
const PolicyADAPT = "adapt"

// PolicyNames returns all six policies in the paper's presentation
// order (five baselines, then ADAPT).
func PolicyNames() []string {
	return append(placement.BaselineNames(), PolicyADAPT)
}

// Scale sizes the experiments. The paper's full scale (50 volumes,
// 1 M-block YCSB fills) takes minutes; Small keeps unit tests and
// testing.B iterations fast while preserving every qualitative
// relationship.
type Scale struct {
	// Volumes per production suite (paper: 50).
	Volumes int
	// VolumeBlocks centers the per-volume footprint in 4 KiB blocks.
	VolumeBlocks int64
	// OverwriteFactor is write volume per volume relative to footprint.
	OverwriteFactor float64
	// YCSBBlocks and YCSBWrites size the sensitivity experiments
	// (paper: 1 M blocks filled, 10 M writes).
	YCSBBlocks, YCSBWrites int64
	// Seed drives all synthesis.
	Seed uint64
}

// SmallScale is used by tests and testing.B benchmarks.
func SmallScale() Scale {
	return Scale{
		Volumes:         6,
		VolumeBlocks:    8 << 10,
		OverwriteFactor: 4,
		YCSBBlocks:      16 << 10,
		YCSBWrites:      128 << 10,
		Seed:            1,
	}
}

// FullScale approximates the paper's configuration.
func FullScale() Scale {
	return Scale{
		Volumes:         50,
		VolumeBlocks:    32 << 10,
		OverwriteFactor: 5,
		YCSBBlocks:      1 << 20,
		YCSBWrites:      10 << 20,
		Seed:            1,
	}
}

// StoreConfig derives simulator geometry for a volume of the given
// footprint: 4 KiB blocks, 64 KiB chunks, Pangu's 100 µs SLA window,
// 4-SSD RAID-5, and a segment size scaled so every volume has enough
// segments for meaningful GC.
func StoreConfig(userBlocks int64, victim lss.VictimPolicy) lss.Config {
	const chunkBlocks = 16
	// Keep at least ~256 segments so that per-group open segments and
	// the GC watermark cushion stay a small fraction of capacity; the
	// effective spare then tracks OverProvision at every scale.
	segChunks := int(userBlocks / chunkBlocks / 256)
	if segChunks < 2 {
		segChunks = 2
	}
	if segChunks > 32 {
		segChunks = 32
	}
	return lss.Config{
		BlockSize:     4096,
		ChunkBlocks:   chunkBlocks,
		SegmentChunks: segChunks,
		DataColumns:   3,
		UserBlocks:    userBlocks,
		OverProvision: 0.15,
		Victim:        victim,
	}
}

// BuildPolicy constructs a policy by name for the given store
// geometry. ADAPT's sampling rate is scaled to keep a few thousand
// sampled blocks regardless of volume size.
func BuildPolicy(name string, cfg lss.Config) (lss.Policy, error) {
	if name == PolicyADAPT {
		rate := 2048 / float64(cfg.UserBlocks)
		if rate > 0.5 {
			rate = 0.5
		}
		if rate < 0.002 {
			rate = 0.002
		}
		return adaptcore.New(adaptcore.Config{
			UserBlocks:    cfg.UserBlocks,
			SegmentBlocks: cfg.SegmentBlocks(),
			ChunkBlocks:   cfg.ChunkBlocks,
			OverProvision: cfg.OverProvision,
		}, adaptcore.Options{SampleRate: rate}), nil
	}
	return placement.New(name, placement.Params{
		UserBlocks:    cfg.UserBlocks,
		SegmentBlocks: cfg.SegmentBlocks(),
		ChunkBlocks:   cfg.ChunkBlocks,
	})
}

// PolicyFactory builds each engine shard's policy by name, through
// BuildPolicy over the shard's slice of the geometry.
func PolicyFactory(name string) prototype.PolicyFactory {
	return func(_ int, cfg lss.Config) (lss.Policy, error) { return BuildPolicy(name, cfg) }
}

// RunResult summarizes one policy run over one trace.
type RunResult struct {
	Policy string
	Victim lss.VictimPolicy
	Volume string

	WA           float64
	EffectiveWA  float64
	PaddingRatio float64

	UserBlocks, GCBlocks, ShadowBlocks, PaddingBlocks int64
	SegmentsReclaimed                                 int64
	PerGroup                                          []lss.GroupMetrics
}

// RunTrace replays tr (already dense in [0, userBlocks)) through the
// named policy and returns the traffic summary.
func RunTrace(policy string, tr *trace.Trace, userBlocks int64, victim lss.VictimPolicy) (RunResult, error) {
	cfg := StoreConfig(userBlocks, victim)
	pol, err := BuildPolicy(policy, cfg)
	if err != nil {
		return RunResult{}, err
	}
	store := lss.New(cfg, pol)
	if err := trace.Replay(store, tr); err != nil {
		return RunResult{}, fmt.Errorf("policy %s: %w", policy, err)
	}
	m := store.Metrics()
	pg := make([]lss.GroupMetrics, len(m.PerGroup))
	copy(pg, m.PerGroup)
	return RunResult{
		Policy:            policy,
		Victim:            victim,
		Volume:            tr.Name,
		WA:                m.WA(),
		EffectiveWA:       m.EffectiveWA(),
		PaddingRatio:      m.PaddingRatio(),
		UserBlocks:        m.UserBlocks,
		GCBlocks:          m.GCBlocks,
		ShadowBlocks:      m.ShadowBlocks,
		PaddingBlocks:     m.PaddingBlocks,
		SegmentsReclaimed: m.SegmentsReclaimed,
		PerGroup:          pg,
	}, nil
}

// Suite returns the synthesized volume descriptors for a profile at
// the given scale.
func (sc Scale) Suite(p workload.Profile) []workload.Volume {
	return workload.NewSuite(workload.SuiteConfig{
		Profile:         p,
		Volumes:         sc.Volumes,
		ScaleBlocks:     sc.VolumeBlocks,
		OverwriteFactor: sc.OverwriteFactor,
		Seed:            sc.Seed,
	})
}
