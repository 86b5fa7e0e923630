// The golden test lives in the external test package so it can
// register both frontends — internal/nbd imports internal/server, so
// an in-package test could not boot the NBD frontend without a cycle.
package server_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"adapt/internal/adaptcore"
	"adapt/internal/lss"
	"adapt/internal/nbd"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
	"adapt/internal/server"
	"adapt/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// labelValue matches the ="N" part of an indexed metric family
// instance, e.g. lss_group_blocks_total{group="2"}.
var labelValue = regexp.MustCompile(`="[^"]*"`)

// TestMetricNamesGolden pins the serving stack's metric namespace: it
// boots the deepest stack (store + ADAPT policy + one-shard engine +
// traced server + NBD frontend, so every family that path can register
// does — the device array's fault families included), normalizes
// indexed instances to one entry per family, and diffs against the
// committed golden list. A rename, addition, or removal anywhere in the
// stack fails here until the golden file — and with it DESIGN.md's
// metric table — is updated deliberately (go test ./internal/server
// -run MetricNames -update).
func TestMetricNamesGolden(t *testing.T) {
	cfg := lss.Config{
		BlockSize:     64,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    4096,
		OverProvision: 0.25,
	}
	pol := adaptcore.New(adaptcore.Config{
		UserBlocks:    cfg.UserBlocks,
		SegmentBlocks: cfg.SegmentBlocks(),
		ChunkBlocks:   cfg.ChunkBlocks,
		OverProvision: cfg.OverProvision,
	}, adaptcore.Options{SampleRate: 0.5})
	ts := telemetry.New(telemetry.Options{})
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: time.Microsecond,
			Telemetry:   ts,
			// A durable backend registers the lss_durable_* families; the
			// golden pins them alongside the rest of the namespace.
			Durable: &segfile.Options{Dir: t.TempDir(), Sync: segfile.SyncOnSeal},
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.New(server.Config{
		Engine:    eng,
		Volumes:   2,
		Telemetry: ts,
		Trace:     server.TraceConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nbd.New(nbd.Config{Backend: srv, Telemetry: ts}); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	var families []string
	for _, name := range ts.Registry.Names() {
		fam := labelValue.ReplaceAllString(name, "")
		if !seen[fam] {
			seen[fam] = true
			families = append(families, fam)
		}
	}
	sort.Strings(families)
	got := strings.Join(families, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families drifted from %s (run with -update after syncing DESIGN.md):\ngot:\n%swant:\n%s",
			goldenPath, got, want)
	}
}
