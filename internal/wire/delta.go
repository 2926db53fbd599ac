package wire

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/mostdb/most/internal/ftl/eval"
)

// This file holds the answer-delta algebra behind delta notifies: Diff
// computes the positional edit between two answers on the server, and
// ApplyDelta replays it on the client.  Diff keeps a row only when it is
// bit-identical in both answers, so ApplyDelta(base, Diff(base, next)) is
// next exactly — NaN payloads, −0 and ±Inf included — whatever order the
// rows are in.  The canonical order (FromRelation's: instantiation, then
// interval) only makes the edit minimal.

// ErrBadDelta marks a delta that does not fit the answer it is applied to.
var ErrBadDelta = errors.New("wire: delta does not fit its base answer")

// Diff returns the delta that turns base into next, together with the
// inserted rows (which share their Vals with next).  BaseSeq is left zero
// for the caller to set.  Both lists are merged in one pass in canonical
// row order.
func Diff(base, next []AnswerRow) (Delta, []AnswerRow) {
	var d Delta
	var ins []AnswerRow
	i, j := 0, 0
	for i < len(base) || j < len(next) {
		c := 0
		switch {
		case i == len(base):
			c = 1
		case j == len(next):
			c = -1
		default:
			c = compareRows(&base[i], &next[j])
		}
		switch {
		case c < 0:
			d.Deletes = append(d.Deletes, uint32(i))
			i++
		case c > 0:
			d.Inserts = append(d.Inserts, uint32(j))
			ins = append(ins, next[j])
			j++
		case sameRow(&base[i], &next[j]):
			i++
			j++
		default:
			// Equal in order but not bit-identical (a NaN payload, a
			// different interval end): replace the row.
			d.Deletes = append(d.Deletes, uint32(i))
			d.Inserts = append(d.Inserts, uint32(j))
			ins = append(ins, next[j])
			i++
			j++
		}
	}
	return d, ins
}

// ApplyDelta rebuilds the new answer a notify carries from base, the
// answer the subscription holds at the notify's Delta.BaseSeq.  A full
// notify (Delta nil) returns its Answer.  The result is a fresh slice —
// base is never modified, so callers may keep handing base out — and any
// position outside base or the new answer is an ErrBadDelta, never a
// panic.
func ApplyDelta(base []AnswerRow, n *Notify) ([]AnswerRow, error) {
	d := n.Delta
	if d == nil {
		return n.Answer, nil
	}
	if len(d.Inserts) != len(n.Answer) {
		return nil, fmt.Errorf("%w: %d insert positions for %d rows", ErrBadDelta, len(d.Inserts), len(n.Answer))
	}
	if len(d.Deletes) > len(base) {
		return nil, fmt.Errorf("%w: %d deletes from %d rows", ErrBadDelta, len(d.Deletes), len(base))
	}
	size := len(base) - len(d.Deletes) + len(d.Inserts)
	if err := checkPositions(d.Deletes, len(base)); err != nil {
		return nil, fmt.Errorf("%w: delete %v", ErrBadDelta, err)
	}
	if err := checkPositions(d.Inserts, size); err != nil {
		return nil, fmt.Errorf("%w: insert %v", ErrBadDelta, err)
	}
	out := make([]AnswerRow, 0, size)
	i, di, ii := 0, 0, 0
	for j := 0; j < size; j++ {
		if ii < len(d.Inserts) && int(d.Inserts[ii]) == j {
			out = append(out, n.Answer[ii])
			ii++
			continue
		}
		for di < len(d.Deletes) && int(d.Deletes[di]) == i {
			i++
			di++
		}
		out = append(out, base[i])
		i++
	}
	return out, nil
}

// checkPositions verifies a position list is strictly ascending and below
// limit.
func checkPositions(ps []uint32, limit int) error {
	for k, p := range ps {
		if int64(p) >= int64(limit) {
			return fmt.Errorf("position %d out of range (%d rows)", p, limit)
		}
		if k > 0 && p <= ps[k-1] {
			return fmt.Errorf("position %d not above %d", p, ps[k-1])
		}
	}
	return nil
}

// RowsSize is the encoded size of an answer-row list (count included), so
// a sender can weigh a full answer against a delta without encoding
// either.
func RowsSize(rows []AnswerRow) int {
	n := 4
	for i := range rows {
		n += 4 + 16
		for _, v := range rows[i].Vals {
			n += 1 + uvarintLen(len(v.Obj)) + len(v.Obj) + 8 + uvarintLen(len(v.Str)) + len(v.Str) + 1
		}
	}
	return n
}

// Size is the encoded size of the delta block a notify appends after its
// rows.
func (d *Delta) Size() int { return 8 + 4 + 4*len(d.Deletes) + 4 + 4*len(d.Inserts) }

func uvarintLen(n int) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], uint64(n))
}

// compareRows orders rows as FromRelation emits them: by the evaluator's
// instantiation key (eval.Relation sorts tuples by each value's kind digit
// and rendering), then by interval.
func compareRows(a, b *AnswerRow) int {
	for k := 0; k < len(a.Vals) && k < len(b.Vals); k++ {
		if c := compareKeyVal(&a.Vals[k], &b.Vals[k]); c != 0 {
			return c
		}
	}
	switch {
	case len(a.Vals) != len(b.Vals):
		return cmp.Compare(len(a.Vals), len(b.Vals))
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	default:
		return cmp.Compare(a.End, b.End)
	}
}

// compareKeyVal compares two values the way their instantiation-key
// renderings compare: kind first, then the rendered text.
func compareKeyVal(a, b *Value) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	switch eval.ValKind(a.Kind) {
	case eval.ValObj:
		return strings.Compare(a.Obj, b.Obj)
	case eval.ValStr:
		return strings.Compare(a.Str, b.Str)
	case eval.ValNum:
		var ba, bb [32]byte
		return bytes.Compare(strconv.AppendFloat(ba[:0], a.Num, 'g', -1, 64), strconv.AppendFloat(bb[:0], b.Num, 'g', -1, 64))
	case eval.ValBool:
		return strings.Compare(strconv.FormatBool(a.Bool), strconv.FormatBool(b.Bool))
	}
	return 0
}

// sameRow reports whether two rows encode to identical bytes.
func sameRow(a, b *AnswerRow) bool {
	if a.Start != b.Start || a.End != b.End || len(a.Vals) != len(b.Vals) {
		return false
	}
	for k := range a.Vals {
		x, y := &a.Vals[k], &b.Vals[k]
		if x.Kind != y.Kind || x.Obj != y.Obj || x.Str != y.Str || x.Bool != y.Bool ||
			math.Float64bits(x.Num) != math.Float64bits(y.Num) {
			return false
		}
	}
	return true
}
