package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/mostdb/most/internal/temporal"
)

// FuzzWireDecode feeds arbitrary byte streams to the frame decoder and the
// payload unmarshalers.  The invariants: the decoder never panics, never
// allocates more than its configured payload bound per frame, consumes the
// stream frame by frame until an error or EOF, every frame it accepts
// re-encodes to bytes that decode to an identical frame, every v2 payload
// that decodes re-encodes to a canonical byte string (decode∘encode is
// idempotent), and a version-1 frame decodes only into the Hello
// exchange's payloads (HelloReq, HelloResp, ErrorResp).
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: valid v2 frames of each shape, the v1 handshake frames,
	// then classic hostile inputs.
	ping, _ := AppendFrame(nil, Frame{Op: OpPing, ID: 1})
	qf2, _ := EncodeFrame(ProtocolV2, OpQuery, 2, &QueryReq{Src: "RETRIEVE o FROM Vehicles o WHERE TRUE", Horizon: 50})
	query2, _ := AppendFrame(nil, qf2)
	two := append(append([]byte(nil), ping...), query2...)
	uf2, _ := EncodeFrame(ProtocolV2, OpUpdateBatch, 4, &UpdateBatchReq{Ops: []UpdateOp{
		{Op: OpSetMotion, ID: "car-1", VX: 1.5, VY: -2},
		{Op: OpDelete, ID: "car-2"},
	}})
	update2, _ := AppendFrame(nil, uf2)
	nf2, _ := EncodeFrame(ProtocolV2, OpNotify, 0, &Notify{SubID: 3, Seq: 9, Answer: []AnswerRow{{Vals: []Value{{Kind: 1, Obj: "car-1"}}, Start: 0, End: 7}}})
	notify2, _ := AppendFrame(nil, nf2)
	// Delta notifies: a valid one, then hostile position lists — out of
	// range for any small base, non-ascending, duplicated, and more insert
	// positions than inserted rows.
	deltaNotify := func(d *Delta, rows int) []byte {
		ans := make([]AnswerRow, rows)
		for i := range ans {
			ans[i] = AnswerRow{Vals: []Value{{Kind: 1, Obj: "car-2"}}, Start: temporal.Tick(i), End: 9}
		}
		f, _ := EncodeFrame(ProtocolV2, OpNotify, 0, &Notify{SubID: 3, Seq: 10, Answer: ans, Delta: d})
		buf, _ := AppendFrame(nil, f)
		return buf
	}
	deltas := [][]byte{
		deltaNotify(&Delta{BaseSeq: 9, Deletes: []uint32{0}, Inserts: []uint32{0}}, 1),
		deltaNotify(&Delta{BaseSeq: 9, Deletes: []uint32{1 << 30}, Inserts: []uint32{7}}, 1),
		deltaNotify(&Delta{BaseSeq: 9, Deletes: []uint32{3, 1}}, 0),
		deltaNotify(&Delta{BaseSeq: 9, Inserts: []uint32{0, 0}}, 2),
		deltaNotify(&Delta{BaseSeq: 9, Inserts: []uint32{0, 1}}, 1),
	}

	zf2, _ := EncodeFrame(ProtocolV2, OpZoneMap, 5, &ZoneMapResp{Epoch: 1, Zones: []Zone{
		{ID: 0, MinX: 0, MinY: 0, MaxX: 100, MaxY: 100, Addr: "127.0.0.1:1"},
	}, Replicated: []string{"POIs"}})
	zonemap2, _ := AppendFrame(nil, zf2)
	hf2, _ := EncodeFrame(ProtocolV2, OpHandoff, 6, &HandoffReq{ID: "car-1", Version: 3, From: "127.0.0.1:1", Object: []byte(`{"id":"car-1"}`)})
	handoff2, _ := AppendFrame(nil, hf2)
	ff2, _ := EncodeFrame(ProtocolV2, OpForward, 7, &ForwardReq{Origin: "cli-9", ReqID: 44, Ops: []UpdateOp{
		{Op: OpSetMotion, ID: "car-1", VX: 0.5, VY: 0.5},
	}})
	forward2, _ := AppendFrame(nil, ff2)

	hello, _ := EncodeFrame(ProtocolV1, OpHello, 1, &HelloReq{ClientID: "fuzz", MaxVersion: 2})
	helloFrame, _ := AppendFrame(nil, hello)
	helloLegacy, _ := EncodeFrame(ProtocolV1, OpHello, 1, &HelloReq{ClientID: "fuzz"})
	helloLegacyFrame, _ := AppendFrame(nil, helloLegacy)
	refusal, _ := EncodeFrame(ProtocolV1, OpError, 1, &ErrorResp{Msg: "v1 only", Code: CodeUnsupportedVersion})
	refusalFrame, _ := AppendFrame(nil, refusal)
	// A legacy v1 JSON request after the handshake: must never decode.
	legacyQuery, _ := AppendFrame(nil, Frame{Op: OpQuery, ID: 2, Version: ProtocolV1, Payload: []byte(`{"src":"RETRIEVE o FROM Vehicles o WHERE TRUE"}`)})

	f.Add(ping)
	f.Add(two)
	f.Add(query2)
	f.Add(update2)
	f.Add(notify2)
	for _, d := range deltas {
		f.Add(d)
	}
	f.Add(zonemap2)
	f.Add(handoff2)
	f.Add(forward2)
	f.Add(helloFrame)
	f.Add(helloLegacyFrame)
	f.Add(refusalFrame)
	f.Add(legacyQuery)
	f.Add([]byte{})
	f.Add([]byte("MW"))                                         // truncated header
	f.Add(append([]byte(nil), ping[:HeaderSize]...))            // header only
	f.Add([]byte("GET / HTTP/1.1\r\nHost: mostserver\r\n\r\n")) // wrong protocol
	huge := append([]byte(nil), ping...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff // 4 GiB length
	f.Add(huge)
	f.Add(append(append([]byte(nil), helloFrame...), update2...)) // a session: handshake, then v2

	const maxPayload = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data), maxPayload)
		for {
			fr, err := d.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					!bytes.Contains([]byte(err.Error()), []byte("wire:")) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			if len(fr.Payload) > maxPayload {
				t.Fatalf("decoder returned %d payload bytes, bound is %d", len(fr.Payload), maxPayload)
			}
			// Accepted frames must re-encode losslessly, version included.
			buf, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			fr2, err := NewDecoder(bytes.NewReader(buf), maxPayload).Next()
			if err != nil {
				t.Fatalf("re-decode of accepted frame failed: %v", err)
			}
			if fr2.Op != fr.Op || fr2.ID != fr.ID || fr2.Version != fr.Version || !bytes.Equal(fr2.Payload, fr.Payload) {
				t.Fatal("re-encoded frame differs")
			}
			// Payload unmarshaling must not panic, whatever the bytes and
			// whichever encoding the version byte selects.
			switch fr.Op {
			case OpHello:
				var h HelloReq
				_ = Unmarshal(fr, &h)
			case OpError:
				checkPayload(t, fr, &ErrorResp{}, &ErrorResp{})
			case OpQuery:
				checkPayload(t, fr, &QueryReq{}, &QueryReq{})
			case OpUpdateBatch:
				checkPayload(t, fr, &UpdateBatchReq{}, &UpdateBatchReq{})
			case OpAdvance:
				checkPayload(t, fr, &AdvanceReq{}, &AdvanceReq{})
			case OpSubscribe:
				checkPayload(t, fr, &SubscribeReq{}, &SubscribeReq{})
			case OpNotify:
				checkPayload(t, fr, &Notify{}, &Notify{})
				checkDelta(t, fr)
			case OpSubClosed:
				checkPayload(t, fr, &SubClosed{}, &SubClosed{})
			case OpZoneMap:
				checkPayload(t, fr, &ZoneMapResp{}, &ZoneMapResp{})
			case OpHandoff:
				checkPayload(t, fr, &HandoffReq{}, &HandoffReq{})
			case OpForward:
				checkPayload(t, fr, &ForwardReq{}, &ForwardReq{})
			}
		}
	})
}

// checkPayload unmarshals a fuzzed frame into a.  A version-1 frame may
// decode only into a Hello-exchange payload.  If a v2 payload is accepted,
// it checks decode∘encode idempotence: the re-encoded bytes b1 must decode
// (into b) and re-encode to exactly b1.  This holds bit-for-bit even for
// NaN floats, since v2 carries IEEE-754 bits verbatim.
func checkPayload(t *testing.T, fr Frame, a, b binaryPayload) {
	t.Helper()
	err := Unmarshal(fr, a)
	if fr.Version == ProtocolV1 {
		if err == nil && !isHandshake(a) {
			t.Fatalf("v1 %s frame decoded into %T; v1 carries only the handshake", fr.Op, a)
		}
		return
	}
	if err != nil {
		return
	}
	b1 := a.appendBinary(nil)
	if err := Unmarshal(Frame{Op: fr.Op, Version: ProtocolV2, Payload: b1}, b); err != nil {
		if len(b1) > 0 {
			t.Fatalf("canonical re-encode of accepted %s payload does not decode: %v", fr.Op, err)
		}
		return
	}
	b2 := b.appendBinary(nil)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s payload not canonical after one decode/encode cycle:\n b1: %x\n b2: %x", fr.Op, b1, b2)
	}
}

// checkDelta applies an accepted delta notify to a small fixed base: a
// delta that does not fit must be refused with ErrBadDelta, never panic,
// and one that fits must produce an answer of the size it declares.
func checkDelta(t *testing.T, fr Frame) {
	t.Helper()
	var n Notify
	if fr.Version != ProtocolV2 || Unmarshal(fr, &n) != nil || n.Delta == nil {
		return
	}
	base := []AnswerRow{{Start: 1, End: 2}, {Start: 3, End: 4}, {Start: 5, End: 6}}
	got, err := ApplyDelta(base, &n)
	if err != nil {
		if !errors.Is(err, ErrBadDelta) {
			t.Fatalf("misfit delta refused with %v, want ErrBadDelta", err)
		}
		return
	}
	if want := len(base) - len(n.Delta.Deletes) + len(n.Delta.Inserts); len(got) != want {
		t.Fatalf("applied delta gave %d rows, want %d", len(got), want)
	}
}
