package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tail is one timing series reduced to the figures the benchmark reports:
// the median, the tail percentile the sample count supports, and the count.
type tail struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP
	TailP float64 // the percentile reported as "p99"
}

// tailPct returns the highest percentile up to 99 that still has at least
// ten samples beyond it, and the 0-based index of that sample in sorted
// order.  A p99 needs 1000 samples; with fewer the tail drops to the
// highest percentile the data can support, and with fewer than 11 samples
// there is no tail at all (ok=false).
func tailPct(n int) (p float64, idx int, ok bool) {
	if n < 11 {
		return 0, 0, false
	}
	if n >= 1000 {
		idx = int(math.Ceil(0.99*float64(n))) - 1
		return 99, idx, true
	}
	idx = n - 11
	return 100 * float64(n-10) / float64(n), idx, true
}

// summarize reduces durations to a tail in milliseconds.  An empty series
// has no figures: they are NaN, which fails the run if reported.
func summarize(ds []time.Duration) tail {
	if len(ds) == 0 {
		return tail{P50: math.NaN(), Tail: math.NaN(), TailP: math.NaN()}
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d) / 1e6
	}
	sort.Float64s(s)
	t := tail{N: len(s), P50: median(s)}
	if p, idx, ok := tailPct(len(s)); ok {
		t.Tail, t.TailP = s[idx], p
	} else {
		t.Tail, t.TailP = s[len(s)-1], 100
	}
	return t
}

// weightedTail is summarize for samples that each count ops times: the
// percentiles are those of the series in which every sample is repeated
// ops times.  The tail is taken at the percentile tailPct picks for the
// number of samples, and never nearer the end than tailPct's index, so it
// still has ten samples beyond it.
func weightedTail(ss []sample) tail {
	s := append([]sample(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].d < s[j].d })
	total := 0
	for _, x := range s {
		total += x.ops
	}
	if len(s) == 0 || total <= 0 {
		return tail{P50: math.NaN(), Tail: math.NaN(), TailP: math.NaN()}
	}
	// at is the index of the first sample at which the running weight
	// reaches the share q of the total.
	at := func(q float64) int {
		cum := 0
		for i, x := range s {
			if cum += x.ops; float64(cum) >= q*float64(total) {
				return i
			}
		}
		return len(s) - 1
	}
	ms := func(i int) float64 { return float64(s[i].d) / 1e6 }
	t := tail{N: len(s), P50: ms(at(0.5)), Tail: ms(len(s) - 1), TailP: 100}
	if p, idx, ok := tailPct(len(s)); ok {
		t.Tail, t.TailP = ms(min(at(p/100), idx)), p
	}
	return t
}

// median of an ascending slice; NaN for an empty one, which fails the
// run if reported.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy of vs and returns its median.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return median(s)
}

// lowerQuartile returns the first quartile of vs, interpolated between
// the two nearest samples; NaN for an empty series, which fails the run if
// reported.  Repeated timings of one operation report it: interference
// from outside the benchmark only ever adds time, and the fastest quarter
// of the repetitions is the part it spared most.
func lowerQuartile(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	x := float64(len(s)-1) / 4
	i := int(x)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

// byItem reduces the samples that share a key to one, whose duration is
// the lower quartile of theirs: samples with one key repeated the same
// work item in different replay cycles (itemKey), and interference from
// outside the benchmark only ever adds time to a repetition.  Items come
// out in the order of their first sample.
func byItem(ss []sample) []sample {
	idx := map[int64]int{}
	var out []sample
	var ds [][]float64
	for _, s := range ss {
		i, ok := idx[s.key]
		if !ok {
			i = len(out)
			idx[s.key] = i
			out = append(out, s)
			ds = append(ds, nil)
		}
		ds[i] = append(ds[i], float64(s.d))
	}
	for i := range out {
		out[i].d = time.Duration(lowerQuartile(ds[i]))
	}
	return out
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat
// (pid 0 = this process).
func procCPU(pid int) (time.Duration, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse %s", path)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse %s", path)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse %s", path)
	}
	// Linux reports these in clock ticks of USER_HZ, fixed at 100 for the
	// userspace ABI.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
