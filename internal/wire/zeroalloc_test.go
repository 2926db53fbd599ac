package wire

import (
	"bytes"
	"testing"
)

// ingestCycle returns the exact per-request cycle of the server's
// update-batch handler on the ingest hot path — frame decode with a reused
// payload buffer (Decoder.NextReuse), payload decode into a reused struct
// with interned object IDs (UnmarshalInterned), pooled response encode
// (EncodePooled/Recycle), and response framing into a reused write buffer
// (AppendFrame) — over one realistic batch of 16 motion updates on a
// recurring ID set, plus the batch's frame size.
func ingestCycle(tb testing.TB) (func(), int) {
	var req UpdateBatchReq
	for i := 0; i < 16; i++ {
		req.Ops = append(req.Ops, UpdateOp{
			Op: OpSetMotion, ID: "car-" + string(rune('a'+i)), VX: float64(i), VY: -float64(i),
		})
	}
	f, err := EncodeFrame(ProtocolV2, OpUpdateBatch, 42, &req)
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := AppendFrame(nil, f)
	if err != nil {
		tb.Fatal(err)
	}

	rd := bytes.NewReader(stream)
	dec := NewDecoder(rd, 1<<20)
	dec.SetVersion(ProtocolV2)
	intern := Interner{}
	var decoded UpdateBatchReq
	var resp UpdateBatchResp
	wbuf := make([]byte, 0, 64)
	return func() {
		rd.Reset(stream)
		dec.Reset(rd)
		fr, err := dec.NextReuse()
		if err != nil {
			tb.Fatal(err)
		}
		if err := UnmarshalInterned(fr, &decoded, intern); err != nil {
			tb.Fatal(err)
		}
		if len(decoded.Ops) != len(req.Ops) {
			tb.Fatalf("decoded %d ops, want %d", len(decoded.Ops), len(req.Ops))
		}
		resp = UpdateBatchResp{Applied: len(decoded.Ops), Now: 7, Version: 99}
		out, err := EncodePooled(OpResult, fr.ID, &resp)
		if err != nil {
			tb.Fatal(err)
		}
		wbuf, err = AppendFrame(wbuf[:0], out)
		if err != nil {
			tb.Fatal(err)
		}
		Recycle(out)
	}, len(stream)
}

// TestIngestZeroAlloc is the allocation-regression guard for the ingest
// hot path (ingestCycle).  Steady state must be 0 allocs/op; any
// regression here reappears as GC pressure at ingest rates of hundreds of
// thousands of updates per second.
func TestIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	cycle, _ := ingestCycle(t)
	cycle() // warm-up: grows the reused buffers and seeds the interner

	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("ingest hot path allocates %.1f times per request, want 0", allocs)
	}
}

// BenchmarkIngestV2 measures the full per-request decode+encode cycle the
// server runs per update batch, for the ARCHITECTURE.md profile table.
func BenchmarkIngestV2(b *testing.B) {
	cycle, n := ingestCycle(b)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
