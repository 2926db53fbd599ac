package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/mostdb/most/internal/temporal"
)

// roundTrip runs in through a full v2 frame encode/decode, unmarshals it
// into a fresh value of the same type, and demands that decode∘encode be
// the identity: the decoded value re-encodes to exactly the original
// payload bytes.  Because v2 carries float64 as raw IEEE-754 bits, byte
// identity is bit identity — NaN payloads, −0 and ±Inf included, which
// reflect.DeepEqual cannot check.
func roundTrip(t *testing.T, op Opcode, in binaryPayload) binaryPayload {
	t.Helper()
	f, err := EncodeFrame(ProtocolV2, op, 7, in)
	if err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewDecoder(bytes.NewReader(buf), 0).Next()
	if err != nil {
		t.Fatalf("decode %T: %v", in, err)
	}
	if g.Version != ProtocolV2 {
		t.Fatalf("frame version %d, want %d", g.Version, ProtocolV2)
	}
	out := reflect.New(reflect.TypeOf(in).Elem()).Interface().(binaryPayload)
	if err := Unmarshal(g, out); err != nil {
		t.Fatalf("unmarshal %T: %v", in, err)
	}
	if re := out.appendBinary(nil); !bytes.Equal(re, f.Payload) {
		t.Fatalf("decode∘encode changed %T:\n in:  %x\n out: %x", in, f.Payload, re)
	}
	return out
}

// payloadCorpus holds one or more instances of every v2 payload type,
// with float64 fields set to x wherever a payload carries one.
func payloadCorpus(x float64) []struct {
	op Opcode
	in binaryPayload
} {
	vals := []Value{
		{Kind: 1, Obj: "car-00017"},
		{Kind: 2, Num: -math.MaxFloat64},
		{Kind: 2, Num: 0.1 + 0.2}, // not representable exactly: bits must survive
		{Kind: 2, Num: x},
		{Kind: 3, Str: "hello\x00world — ünïcode"},
		{Kind: 4, Bool: true},
		{},
	}
	rows := []AnswerRow{
		{Vals: vals, Start: -3, End: temporal.Tick(math.MaxInt64)},
		{Start: 5, End: 5},
	}
	val := Value{Kind: 2, Num: x}
	return []struct {
		op Opcode
		in binaryPayload
	}{
		{OpQuery, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50}},
		{OpQuery, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50, DeadlineMS: 1500}},
		{OpResult, &QueryResp{Now: 12, Rows: [][]Value{vals, {vals[0]}}}},
		{OpUpdateBatch, &UpdateBatchReq{DeadlineMS: 250, Ops: []UpdateOp{
			{Op: OpSetMotion, ID: "car-1", VX: x, VY: -2.25},
			{Op: OpSetStatic, ID: "car-2", Attr: "PRICE", Value: &val},
			{Op: OpSetStatic, ID: "car-2", Attr: "FLAG"},
			{Op: OpInsert, ID: "car-3", Object: json.RawMessage(`{"id":"car-3"}`)},
			{Op: OpDelete, ID: "car-1"},
		}}},
		{OpResult, &UpdateBatchResp{Applied: 5, Now: 9, Version: 1 << 40}},
		{OpAdvance, &AdvanceReq{D: 17}},
		{OpResult, &AdvanceResp{Now: 17}},
		{OpObjects, &ObjectsReq{Class: "Vehicles"}},
		{OpResult, &ObjectsResp{Now: 3, Objects: []ObjectInfo{
			{ID: "a", Class: "Vehicles", HasPos: true, X: 1.25, Y: x},
			{ID: "b", Class: "Motels"},
		}}},
		{OpSnapshotLoad, &SnapshotLoadReq{Data: json.RawMessage(`{"now":4}`)}},
		{OpResult, &SnapshotLoadResp{Now: 4, Objects: 7}},
		{OpResult, &SnapshotResp{Data: json.RawMessage(`{"now":4}`)}},
		{OpSubscribe, &SubscribeReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 9}},
		{OpResult, &SubscribeResp{SubID: 3, Now: 2, Answer: rows}},
		{OpUnsubscribe, &UnsubscribeReq{SubID: 3}},
		{OpNotify, &Notify{SubID: 3, Seq: 41, Answer: rows}},
		{OpNotify, &Notify{SubID: 3, Seq: 42, Answer: rows[1:], Delta: &Delta{BaseSeq: 41, Deletes: []uint32{0, 1}, Inserts: []uint32{0}}}},
		{OpNotify, &Notify{SubID: 3, Seq: 43, Delta: &Delta{BaseSeq: 42}}},
		{OpSubClosed, &SubClosed{SubID: 3, Reason: "database replaced"}},
		{OpError, &ErrorResp{Msg: "no such object"}},
		{OpError, &ErrorResp{Msg: "shed by admission control", Code: CodeOverloaded}},
		{OpError, &ErrorResp{Msg: "not here", Code: CodeWrongZone, Redirects: []string{"", "10.0.0.2:7"}}},
		{OpResult, &ZoneMapResp{Epoch: 2, Zones: []Zone{{ID: 1, MinX: x, MaxX: 500, MaxY: 1000, Addr: "10.0.0.1:7"}}, Replicated: []string{"POIs"}}},
		{OpHandoff, &HandoffReq{ID: "car-4", Version: 3, From: "10.0.0.1:7", Object: json.RawMessage(`{"id":"car-4"}`)}},
		{OpResult, &HandoffResp{Accepted: true, Now: 8}},
		{OpForward, &ForwardReq{Origin: "cli-9", ReqID: 44, Ops: []UpdateOp{{Op: OpSetMotion, ID: "car-1", VX: 0.5, VY: x}}}},
	}
}

// Every payload type survives a v2 frame round trip: structurally equal
// for ordinary floats, and bit-exact (decode∘encode is the identity) for
// NaN, a NaN with a payload, −0 and ±Inf in every float64 field.
func TestBinaryPayloadsRoundTrip(t *testing.T) {
	for _, c := range payloadCorpus(1.5) {
		if out := roundTrip(t, c.op, c.in); !reflect.DeepEqual(out, c.in) {
			t.Fatalf("v2 round trip changed %T:\n in:  %#v\n out: %#v", c.in, c.in, out)
		}
	}
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		0x7ff8000000000001, // NaN with a payload
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
	} {
		for _, c := range payloadCorpus(math.Float64frombits(bits)) {
			roundTrip(t, c.op, c.in)
		}
	}
}

// Version 1 carries only the Hello exchange: the three handshake payloads
// round-trip as JSON, and every other payload type is refused in both
// directions rather than silently accepted.
func TestVersion1CarriesOnlyHandshake(t *testing.T) {
	for _, in := range []any{
		&HelloReq{ClientID: "c", MaxVersion: ProtocolV2, Epoch: 3, Peer: true},
		&HelloResp{Server: "s", Version: ProtocolV2, Resumed: true},
		&ErrorResp{Msg: "v1 only", Code: CodeUnsupportedVersion},
	} {
		f, err := EncodeFrame(ProtocolV1, OpResult, 1, in)
		if err != nil {
			t.Fatalf("encode %T at v1: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := Unmarshal(f, out); err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("v1 round trip of %T: %v, got %#v", in, err, out)
		}
	}
	if _, err := EncodeFrame(ProtocolV1, OpQuery, 1, &QueryReq{Src: "x"}); err == nil {
		t.Fatal("v1 encode of a query payload succeeded")
	}
	f := Frame{Op: OpQuery, ID: 1, Version: ProtocolV1, Payload: []byte(`{"src":"x"}`)}
	if err := Unmarshal(f, &QueryReq{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v1 query payload decoded: %v, want ErrBadFrame", err)
	}
}

// Float64 payloads must survive bit-exactly, including NaN payloads and
// negative zero, which DeepEqual cannot check.
func TestBinaryFloat64BitExact(t *testing.T) {
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		0x7ff8000000000001, // NaN with a payload
		math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)),
	} {
		in := Value{Kind: 2, Num: math.Float64frombits(bits)}
		var out Value
		r := binReader{data: in.appendBinary(nil)}
		if err := out.decodeBinary(&r); err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(out.Num); got != bits {
			t.Fatalf("float bits %#x decoded as %#x", bits, got)
		}
	}
}

// An op kind v2 cannot express must fail loudly on decode, not silently
// drop or mangle the op.
func TestBinaryUnknownUpdateOpRejected(t *testing.T) {
	bad := UpdateOp{Op: "explode", ID: "car-1"}
	f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 1, &UpdateBatchReq{Ops: []UpdateOp{bad}})
	if err != nil {
		t.Fatal(err)
	}
	var out UpdateBatchReq
	if err := Unmarshal(f, &out); err == nil {
		t.Fatal("unknown op kind decoded without error")
	}
}

// A hostile element count far beyond the actual payload must be rejected
// by the count-vs-remaining check, not trigger a huge allocation.
func TestBinaryHostileCountRejected(t *testing.T) {
	buf := appendU32(appendI64(nil, 0), 1<<31) // one billion ops declared, zero bytes present
	f := Frame{Op: OpUpdateBatch, ID: 1, Version: ProtocolV2, Payload: buf}
	var out UpdateBatchReq
	err := Unmarshal(f, &out)
	if err == nil {
		t.Fatal("hostile count decoded without error")
	}
	if !strings.Contains(err.Error(), "count") {
		t.Fatalf("want count-bound error, got: %v", err)
	}
}

// Trailing bytes after a well-formed v2 payload are a framing error.
func TestBinaryTrailingBytesRejected(t *testing.T) {
	req := AdvanceReq{D: 4}
	payload := append(req.appendBinary(nil), 0xEE)
	f := Frame{Op: OpAdvance, ID: 1, Version: ProtocolV2, Payload: payload}
	var out AdvanceReq
	if err := Unmarshal(f, &out); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

// Truncations at every prefix length must error, never panic.
func TestBinaryTruncationsError(t *testing.T) {
	full, err := EncodeFrame(ProtocolV2, OpNotify, 0, &Notify{
		SubID: 1, Seq: 2,
		Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "x"}}, Start: 1, End: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// i starts at 1: a zero-length payload is the legal "no payload" frame.
	for i := 1; i < len(full.Payload); i++ {
		f := Frame{Op: OpNotify, Version: ProtocolV2, Payload: full.Payload[:i]}
		var out Notify
		if err := Unmarshal(f, &out); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", i, len(full.Payload))
		}
	}
}

// Pooled frames must detach into stable copies before the pool reclaims
// the buffer — the idempotence cache depends on this.
func TestEncodePooledDetachAndRecycle(t *testing.T) {
	f, err := EncodePooled(OpResult, 1, &UpdateBatchResp{Applied: 3, Now: 9, Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Detach()
	want := append([]byte(nil), f.Payload...)
	Recycle(f)
	// Reuse the pool slot and scribble over it.
	g, err := EncodePooled(OpResult, 2, &UpdateBatchResp{Applied: 999999, Now: -1, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept.Payload, want) {
		t.Fatal("detached frame changed after its pooled original was recycled")
	}
	var out UpdateBatchResp
	if err := Unmarshal(kept, &out); err != nil || out.Applied != 3 {
		t.Fatalf("detached frame undecodable: %v, %+v", err, out)
	}
	Recycle(g)
}

// The interner must return identical string instances for recurring IDs
// and stay bounded against an adversary cycling unique IDs.
func TestInterner(t *testing.T) {
	in := Interner{}
	a := in.Intern([]byte("car-1"))
	b := in.Intern([]byte("car-1"))
	if a != b {
		t.Fatal("interner returned unequal strings")
	}
	if len(in) != 1 {
		t.Fatalf("interner holds %d entries, want 1", len(in))
	}
	if got := Interner(nil).Intern([]byte("x")); got != "x" {
		t.Fatalf("nil interner returned %q", got)
	}
}

// Decoding into a reused struct must overwrite every field: the server
// decodes each update batch into one session-owned struct, so a field a
// later batch does not carry must not keep the earlier batch's value.  A
// long batch carrying an insert Object, a set_static Value and a
// DeadlineMS is followed by a shorter batch of other op kinds without
// them, then by an empty payload (the zero-value batch).
func TestBinaryDecodeIntoReusedStruct(t *testing.T) {
	price := Value{Kind: 2, Num: 9}
	long := UpdateBatchReq{DeadlineMS: 1500, Ops: []UpdateOp{
		{Op: OpInsert, ID: "car-9", Object: json.RawMessage(`{"id":"car-9"}`)},
		{Op: OpSetStatic, ID: "car-1", Attr: "PRICE", Value: &price},
		{Op: OpSetMotion, ID: "car-2", VX: 3, VY: -4},
		{Op: OpDelete, ID: "car-3"},
	}}
	short := UpdateBatchReq{Ops: []UpdateOp{
		{Op: OpSetMotion, ID: "car-1", VX: 1, VY: 2},
		{Op: OpSetStatic, ID: "car-2", Attr: "FLAG"},
		{Op: OpDelete, ID: "car-9"},
	}}
	var dst UpdateBatchReq
	in := Interner{}
	for _, req := range []*UpdateBatchReq{&long, &short, {}} {
		f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 1, req)
		if err != nil {
			t.Fatal(err)
		}
		if req.Ops == nil {
			f.Payload = nil // the empty payload: R6's zero-value frame
		}
		if err := UnmarshalInterned(f, &dst, in); err != nil {
			t.Fatal(err)
		}
		if len(dst.Ops) != len(req.Ops) || dst.DeadlineMS != req.DeadlineMS ||
			(len(req.Ops) > 0 && !reflect.DeepEqual(dst.Ops, req.Ops)) {
			t.Fatalf("reused decode diverged:\n got:  %#v\n want: %#v", dst, *req)
		}
	}
}
