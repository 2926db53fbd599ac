package cluster

import (
	"reflect"
	"testing"

	"github.com/mostdb/most/internal/wire"
)

// Two nodes hold the same replicated-class row with different intervals —
// a restarted node re-anchored its evaluation at tick 12, a survivor still
// holds the interval anchored at 0 — so the merge presents it once at the
// current tick, and overlapping or adjacent intervals of one instantiation
// coalesce into maximal ones.
func TestMergeAnswersCoalescesReplicatedRow(t *testing.T) {
	bus := []wire.Value{{Kind: 1, Obj: "bus-002"}}
	car := []wire.Value{{Kind: 1, Obj: "car-7"}}
	survivor := []wire.AnswerRow{{Vals: bus, Start: 0, End: 40}, {Vals: car, Start: 3, End: 5}}
	restarted := []wire.AnswerRow{
		{Vals: bus, Start: 12, End: 60},
		{Vals: car, Start: 6, End: 8},
		{Vals: car, Start: 20, End: 21},
	}
	got := mergeAnswers([][]wire.AnswerRow{survivor, restarted})
	if rows := wire.RowsAt(got, 15); len(rows) != 1 || rows[0][0].Obj != "bus-002" {
		t.Fatalf("merged answer presents %v at tick 15, want bus-002 once", rows)
	}
	want := []wire.AnswerRow{
		{Vals: bus, Start: 0, End: 60},
		{Vals: car, Start: 3, End: 8},
		{Vals: car, Start: 20, End: 21},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged answer\n got  %v\n want %v", got, want)
	}
	if again := mergeAnswers([][]wire.AnswerRow{restarted, survivor}); !reflect.DeepEqual(again, want) {
		t.Fatalf("merge depends on node order: %v", again)
	}
}
