package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
)

// Over random base and new answers — values NaN (two payloads), −0, ±Inf,
// empty answers, canonical and shuffled row orders — a delta notify that
// crossed the wire rebuilds the new answer to exactly the bytes of the full
// notify, leaves the base untouched, and weighs exactly what RowsSize and
// Delta.Size predict.
func TestDeltaRebuildsAnswerBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nums := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), 1.5, 10, 9}
	var pool []AnswerRow
	for i := 0; i < 60; i++ {
		start := temporal.Tick(rng.Intn(20))
		pool = append(pool, AnswerRow{
			Vals:  []Value{{Kind: uint8(eval.ValObj), Obj: fmt.Sprintf("car-%d", rng.Intn(12))}, {Kind: uint8(eval.ValNum), Num: nums[rng.Intn(len(nums))]}},
			Start: start,
			End:   start + temporal.Tick(rng.Intn(5)),
		})
	}
	pick := func() []AnswerRow {
		var out []AnswerRow
		keep := rng.Float64()
		for _, r := range pool {
			if rng.Float64() < keep {
				out = append(out, r)
			}
		}
		if rng.Intn(2) == 0 {
			sort.SliceStable(out, func(i, j int) bool { return compareRows(&out[i], &out[j]) < 0 })
		} else {
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		}
		return out
	}
	for trial := 0; trial < 1000; trial++ {
		base, next := pick(), pick()
		switch trial % 10 {
		case 0:
			base = nil
		case 1:
			next = nil
		case 2:
			next = append([]AnswerRow(nil), base...)
		}
		baseBytes := appendAnswerRows(nil, base)

		d, ins := Diff(base, next)
		d.BaseSeq = 7
		sent := &Notify{SubID: 1, Seq: 8, Answer: ins, Delta: &d}
		if got, want := len(sent.appendBinary(nil)), 16+RowsSize(ins)+d.Size(); got != want {
			t.Fatalf("trial %d: delta notify encodes to %d bytes, sizes predict %d", trial, got, want)
		}
		if got, want := len(appendAnswerRows(nil, next)), RowsSize(next); got != want {
			t.Fatalf("trial %d: rows encode to %d bytes, RowsSize says %d", trial, got, want)
		}
		got := roundTrip(t, OpNotify, sent).(*Notify)
		rebuilt, err := ApplyDelta(base, got)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := (&Notify{SubID: 1, Seq: 8, Answer: next}).appendBinary(nil)
		if re := (&Notify{SubID: 1, Seq: 8, Answer: rebuilt}).appendBinary(nil); !bytes.Equal(re, want) {
			t.Fatalf("trial %d: rebuilt answer differs from the new answer:\n got  %x\n want %x", trial, re, want)
		}
		if !bytes.Equal(appendAnswerRows(nil, base), baseBytes) {
			t.Fatalf("trial %d: applying the delta modified its base", trial)
		}
	}
}

// Diff's merge order is the order FromRelation emits: one new instantiation
// in a relation whose keys sort differently as text and as numbers (9 vs
// 10, −0 vs 0) costs exactly one insert and nothing else.
func TestDiffFollowsRelationOrder(t *testing.T) {
	rel := eval.NewRelation("o", "x")
	for i := 0; i < 40; i++ {
		rel.Add([]eval.Val{eval.ObjVal(most.ObjectID(fmt.Sprintf("car-%d", i))), eval.NumVal(float64(i % 11))},
			temporal.NewSet(temporal.Interval{Start: 0, End: temporal.Tick(i)}, temporal.Interval{Start: temporal.Tick(i + 2), End: 90}))
	}
	rel.Add([]eval.Val{eval.ObjVal("car-0"), eval.NumVal(math.Copysign(0, -1))}, temporal.SinglePoint(3))
	base := FromRelation(rel)
	grown := rel.Clone()
	grown.Add([]eval.Val{eval.ObjVal("car-17"), eval.NumVal(10)}, temporal.SinglePoint(5))
	d, ins := Diff(base, FromRelation(grown))
	if len(d.Deletes) != 0 || len(d.Inserts) != 1 || len(ins) != 1 {
		t.Fatalf("one added tuple diffed as %d deletes, %d inserts", len(d.Deletes), len(d.Inserts))
	}
}

// Deltas that do not fit their base are refused, never applied partially.
func TestApplyDeltaRefusesMisfits(t *testing.T) {
	base := []AnswerRow{{Start: 1, End: 1}, {Start: 2, End: 2}}
	row := []AnswerRow{{Start: 9, End: 9}}
	for _, n := range []Notify{
		{Delta: &Delta{Deletes: []uint32{2}}},
		{Delta: &Delta{Deletes: []uint32{0, 1, 2}}},
		{Delta: &Delta{Deletes: []uint32{1, 0}}},
		{Delta: &Delta{Inserts: []uint32{3}}, Answer: row},
		{Delta: &Delta{Inserts: []uint32{0, 1}}, Answer: row},
		{Delta: &Delta{Deletes: []uint32{0, 1}, Inserts: []uint32{1}}, Answer: row},
	} {
		if _, err := ApplyDelta(base, &n); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("delta %+v applied with err %v, want ErrBadDelta", *n.Delta, err)
		}
	}
}
