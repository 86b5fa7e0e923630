package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adapt/internal/lss"
	"adapt/internal/placement"
	"adapt/internal/prototype"
	"adapt/internal/segfile"
)

// The SIGKILL restart test runs the real process lifecycle: the test
// binary re-executes itself as a server process (TestDurableServerHelper
// below), the parent writes through the wire client and records every
// acked payload, kills the server with SIGKILL — no shutdown path, no
// flush — reboots it on the same data directory, and reads every
// recorded block back. An acked write that does not survive is a
// durability bug in the volume backing files or the segfile log.

// e2eVolumes and the engine geometry must be identical across boots;
// the manifest and the segfile geometry fingerprint both verify this.
const e2eVolumes = 2

func e2eServer(dir string) (*Server, *prototype.Sharded, error) {
	cfg := lss.Config{
		BlockSize:     testBlockBytes,
		ChunkBlocks:   8,
		SegmentChunks: 4,
		UserBlocks:    4096,
		OverProvision: 0.25,
	}
	pol, err := placement.New(placement.NameSepGC, placement.Params{
		UserBlocks:    cfg.UserBlocks,
		SegmentBlocks: cfg.SegmentBlocks(),
		ChunkBlocks:   cfg.ChunkBlocks,
	})
	if err != nil {
		return nil, nil, err
	}
	eng, err := prototype.NewSharded(prototype.ShardedConfig{
		Engine: prototype.EngineConfig{
			Store:       cfg,
			ServiceTime: time.Microsecond,
			Durable: &segfile.Options{
				Dir:  filepath.Join(dir, "engine"),
				Sync: segfile.SyncAlways,
			},
		},
		Shards:        1,
		PolicyFactory: func(int, lss.Config) (lss.Policy, error) { return pol, nil },
	})
	if err != nil {
		return nil, nil, err
	}
	srv, err := New(Config{
		Engine:       eng,
		Volumes:      e2eVolumes,
		DataDir:      filepath.Join(dir, "volumes"),
		Batch:        true,
		BatchTimeout: time.Millisecond,
	})
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	return srv, eng, nil
}

// TestDurableServerHelper is not a test: it is the server process the
// SIGKILL test re-executes. It boots on ADAPT_E2E_DIR, announces its
// address on stdout, and serves until the parent kills it.
func TestDurableServerHelper(t *testing.T) {
	dir := os.Getenv("ADAPT_E2E_DIR")
	if dir == "" {
		t.Skip("helper process for TestDurableSIGKILLRestart")
	}
	srv, _, err := e2eServer(dir)
	if err != nil {
		t.Fatalf("helper boot: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("helper listen: %v", err)
	}
	fmt.Fprintf(os.Stdout, "LISTEN %s\n", ln.Addr())
	_ = srv.Serve(ln) // runs until SIGKILL
}

// startHelper re-executes the test binary as a server process on dir
// and returns the running process plus its listen address.
func startHelper(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestDurableServerHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(), "ADAPT_E2E_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				addrCh <- a
				break
			}
		}
		close(addrCh)
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("helper exited without announcing an address")
		}
		return cmd, addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("helper did not announce an address in 30s")
	}
	panic("unreachable")
}

// TestDurableSIGKILLRestart writes acked blocks to a live server
// process, SIGKILLs it mid-flight, reboots on the same directory, and
// verifies every acked payload reads back byte-identical.
func TestDurableSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()

	cmd, addr := startHelper(t, dir)
	clients := make([]*Client, e2eVolumes)
	for v := range clients {
		clients[v] = dial(t, addr, uint32(v))
	}

	// shadow[volume][lba] is the version byte of the last ACKED write;
	// anything acked before the kill must survive it.
	shadow := make([]map[int64]byte, e2eVolumes)
	for v := range shadow {
		shadow[v] = make(map[int64]byte)
	}
	rng := rand.New(rand.NewSource(7))
	volBlocks := int64(4096 / e2eVolumes)
	for i := 0; i < 600; i++ {
		v := rng.Intn(e2eVolumes)
		lba := rng.Int63n(volBlocks)
		ver := byte(i%250 + 1)
		var err error
		if i%5 == 4 {
			err = clients[v].WriteSync(lba, pattern(uint32(v), lba, ver))
		} else {
			err = clients[v].Write(lba, pattern(uint32(v), lba, ver))
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		shadow[v][lba] = ver
	}

	// The live process must be visibly paying for durability: STAT
	// carries the fsync histogram and a nonzero fsync count.
	preStats, err := clients[0].Stats()
	if err != nil {
		t.Fatalf("stats before kill: %v", err)
	}
	for _, key := range []string{"durable_fsyncs", "durable_fsync_p50_ns", "durable_fsync_p99_ns",
		"durable_fsync_p999_ns", "durable_synced_segments", "durable_checkpoints"} {
		if _, ok := preStats[key]; !ok {
			t.Fatalf("STAT missing %s: %v", key, preStats)
		}
	}
	if preStats["durable_fsyncs"] < 1 {
		t.Fatalf("engine acked writes without fsyncing: %v", preStats)
	}

	// SIGKILL: no drain, no flush, no deferred sync. Whatever the acks
	// promised must already be on disk.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = cmd.Wait()
	for _, c := range clients {
		c.Close()
	}

	cmd2, addr2 := startHelper(t, dir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	for v := range shadow {
		c := dial(t, addr2, uint32(v))
		for lba, ver := range shadow[v] {
			got, err := c.Read(lba, 1)
			if err != nil {
				t.Fatalf("vol %d lba %d: read after restart: %v", v, lba, err)
			}
			if want := pattern(uint32(v), lba, ver); !bytes.Equal(got, want) {
				t.Fatalf("vol %d lba %d: acked write lost: got %x want %x", v, lba, got, want)
			}
		}
	}

	// The rebooted engine must have rolled its mapping forward from the
	// segfile log, and STAT must surface the durable instruments.
	c := dial(t, addr2, 0)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if stats["durable_recovered_segments"] < 1 || stats["durable_recovered_blocks"] < 1 {
		t.Fatalf("restarted engine recovered nothing: %v", stats)
	}
}
