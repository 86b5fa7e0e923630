package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// samples is a set of durations in ns.
type samples []int64

// quantile returns the nearest-rank q-quantile in µs (0 when empty).
// It sorts s in place.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))]) / 1e3
}

// median of a small float set.
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// spreadText summarizes a small set of seconds as min/median/max.
func spreadText(v []float64) string {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c) == 0 {
		return "none"
	}
	return fmt.Sprintf("min %.4fs median %.4fs max %.4fs over %d", c[0], median(c), c[len(c)-1], len(c))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is the Go runtime's cumulative allocation and GC pause
// counters, read at phase boundaries.
type runtimeSnap struct {
	mallocs, allocBytes, pauseNS uint64
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
