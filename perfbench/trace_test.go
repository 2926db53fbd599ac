package main

import "testing"

// TestSelfTimes checks self time on a synthetic tree: a root with two
// overlapping children and one child sticking out past the root's end,
// and a grandchild.
func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},  // overlaps a: 10..50 covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // only 90..100 lies inside root
		{ID: 4, Parent: 1, Name: "leaf", Start: 15, End: 25},
		{ID: 5, Parent: -1, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 40 - 10 + 10, // second root has no children
		"a":    30 - 10,
		"b":    20,
		"c":    30,
		"leaf": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}
