package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/mostdb/most/internal/wire"
)

// span is one timed call into a layer.  Spans of one request share Req;
// Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root starts a span that begins request req.
func (t *tracer) root(name string, req int64) *span {
	sp := t.start(name, nil)
	sp.Req = req
	return sp
}

// start starts a span caused by parent (nil for a root).
func (t *tracer) start(name string, parent *span) *span {
	sp := &span{Parent: -1, Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		sp.Parent, sp.Req = parent.ID, parent.Req
	}
	t.mu.Lock()
	sp.ID = len(t.spans)
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

func (t *tracer) end(sp *span) { sp.End = int64(time.Since(t.t0)) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover (children that
// overlap each other are counted once).
func selfTimes(spans []*span) map[string]int64 {
	kids := map[int][]*span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordFrame keeps the encoded frame of a traced batch for the wire
// decode replay.
func (r *run) recordFrame(ops []wire.UpdateOp) {
	f, err := wire.EncodeFrame(wire.ProtocolV2, wire.OpUpdateBatch, 1, &wire.UpdateBatchReq{Ops: ops})
	if err != nil {
		return
	}
	buf, err := wire.AppendFrame(nil, f)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.frames = append(r.frames, buf)
	r.mu.Unlock()
}

// layerRow is one line of the layer table.
type layerRow struct {
	layer  string
	perOp  float64 // self time per op, microseconds
	source string
}

// printLayerTable prints the layer table: each layer's self time per op,
// the residual no layer accounts for, and the tracing overhead.
func printLayerTable(logf func(string, ...any), title, per string, rows []layerRow, total float64) {
	logf("layer table, %s: self time per %s, from the spans of the traced run", title, per)
	logf("  %-28s %12s %7s  %s", "layer", "us", "share", "measured by")
	for _, row := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * row.perOp / total
		}
		logf("  %-28s %12.3f %6.1f%%  %s", row.layer, row.perOp, share, row.source)
	}
	logf("  %-28s %12.3f", "total (client round trip)", total)
}
