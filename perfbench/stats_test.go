package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		idx    int
		wantOK bool
	}{
		{n: 10, wantOK: false},
		{n: 11, p: 100.0 / 11, idx: 0, wantOK: true},
		{n: 100, p: 90, idx: 89, wantOK: true},
		{n: 500, p: 98, idx: 489, wantOK: true},
		{n: 999, p: 100 * 989.0 / 999, idx: 988, wantOK: true},
		{n: 1000, p: 99, idx: 989, wantOK: true},
		{n: 5000, p: 99, idx: 4949, wantOK: true},
	} {
		p, idx, ok := tailPct(c.n)
		if ok != c.wantOK || (ok && (p != c.p || idx != c.idx)) {
			t.Errorf("tailPct(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, idx, ok, c.p, c.idx, c.wantOK)
		}
		if ok && c.n-1-idx < 10 {
			t.Errorf("tailPct(%d): only %d samples beyond index %d", c.n, c.n-1-idx, idx)
		}
	}
}

func TestSummarize(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.N != 1000 || s.P50 != 500.5 || s.Tail != 990 || s.TailP != 99 {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestWeightedTail(t *testing.T) {
	// 90 one-op batches of 1 ms and 10 nine-op batches of 10 ms: half of
	// the 180 updates rode in the slow batches.
	var ss []sample
	for i := 0; i < 90; i++ {
		ss = append(ss, sample{d: time.Millisecond, ops: 1})
	}
	for i := 0; i < 10; i++ {
		ss = append(ss, sample{d: 10 * time.Millisecond, ops: 9})
	}
	w := weightedTail(ss)
	if w.N != 100 || w.P50 != 1 || w.TailP != 90 || w.Tail != 1 {
		t.Fatalf("weightedTail = %+v", w)
	}
	ss = append(ss, sample{d: 20 * time.Millisecond, ops: 1})
	if w := weightedTail(ss); w.P50 != 10 {
		t.Fatalf("weightedTail P50 = %v, want 10", w.P50)
	}
	if w := weightedTail(nil); !math.IsNaN(w.P50) {
		t.Fatalf("weightedTail(nil) P50 = %v, want NaN", w.P50)
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{vs: []float64{7}, want: 7},
		{vs: []float64{4, 1, 3, 2, 5}, want: 2},
		{vs: []float64{1, 2, 3, 4}, want: 1.75},
	} {
		if got := lowerQuartile(c.vs); got != c.want {
			t.Errorf("lowerQuartile(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	if got := lowerQuartile(nil); !math.IsNaN(got) {
		t.Errorf("lowerQuartile(nil) = %v, want NaN", got)
	}
}

func TestByItem(t *testing.T) {
	// Item 1 repeated five times, once slowed by interference; item 2
	// once.  Each keeps the lower quartile of its repetitions, with the
	// ops of its first.
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ss := []sample{
		{d: ms(4), ops: 3, key: 1}, {d: ms(50), ops: 3, key: 1}, {d: ms(2), ops: 3, key: 1},
		{d: ms(9), ops: 1, key: 2},
		{d: ms(3), ops: 3, key: 1}, {d: ms(5), ops: 3, key: 1},
	}
	got := byItem(ss)
	if len(got) != 2 || got[0].key != 1 || got[0].d != ms(3) || got[0].ops != 3 || got[1].key != 2 || got[1].d != ms(9) {
		t.Fatalf("byItem = %+v", got)
	}
}
