package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// Budgets that bound the in-process replay of a traced run.
const (
	maintainBudget = 4 * time.Second // the maintenance pass stops after this much replay
	serverBatches  = 200             // batches replayed against the in-process servers
	keptNotifies   = 500             // encoded Notify frames kept for the decode pass
)

// traced is the traced run: the measured window runs untraced for half its
// length and traced for the other half (the difference is the tracing
// overhead), then the traced batches are replayed in process through each
// layer's public functions to attribute the round trip to the layers.
func (r *run) traced() (*result, error) {
	half := r.cfg.window / 2
	plain, err := r.measureWindow(half)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	segStart := len(r.applied)
	r.frames = nil
	r.mu.Unlock()
	r.trace = newTracer()
	traced, err := r.measureWindow(half)
	t := r.trace
	r.trace = nil
	if err != nil {
		return nil, err
	}
	r.checks()

	r.mu.Lock()
	prefix := append([]appliedBatch(nil), r.applied[:segStart]...)
	seg := append([]appliedBatch(nil), r.applied[segStart:]...)
	frames := r.frames
	tq := r.tracedQ
	r.mu.Unlock()
	sortByClock(prefix)
	sortByClock(seg)
	if len(seg) == 0 {
		return nil, fmt.Errorf("traced window committed no batch")
	}

	rp := &replayer{r: r, t: t, prefix: prefix, seg: seg, opts: query.Options{Horizon: r.w.spec.Horizon, Regions: r.w.regions}}
	m := map[string]metric{}
	if err := rp.run(m, frames); err != nil {
		return nil, err
	}

	// Generator and end-to-end derived figures.
	m["city.generate_ms"] = metric{Value: rp.generateMs(), Unit: "ms"}
	plainOps := opsOf(r.ops(plain))
	m["client.gen_cpu_us_per_op"] = metric{Value: float64(plain.genCPU.Microseconds()) / float64(plainOps), Unit: "us", N: plainOps}
	m["client.gen_lag_ms_p99"] = metric{Value: summarize(plain.lag).Tail, Unit: "ms", N: len(plain.lag)}
	pu, tu := summarize(durations(plain.upd)), summarize(durations(traced.upd))
	pq, tqs := summarize(durations(plain.qry)), summarize(durations(traced.qry))
	m["trace.overhead_update_ms"] = metric{Value: tu.P50 - pu.P50, Unit: "ms", N: tu.N}
	m["trace.overhead_query_ms"] = metric{Value: tqs.P50 - pq.P50, Unit: "ms", N: tqs.N}
	tn := summarize(durations(traced.notify))
	m["server.notify_residual_ms"] = metric{Value: tn.P50 - rp.flipMs, Unit: "ms", N: tn.N}

	// Residuals: the client round trip minus the in-process layer time of
	// the same request.
	var res []float64
	for i := 0; i < rp.k; i++ {
		inproc := rp.decodePerOp*float64(len(seg[i].ops)) + rp.maintainDur[i] + rp.walDur[i] - rp.commitDur[i]
		res = append(res, (float64(seg[i].rtt)-inproc)/1e3)
	}
	m["server.update_residual_us_per_batch"] = metric{Value: medianOf(res), Unit: "us", N: len(res)}
	var qres []float64
	for _, s := range tq {
		if cost, ok := rp.queryCost[s.name]; ok {
			qres = append(qres, (float64(s.rtt)-cost)/1e3)
		}
	}
	m["server.query_residual_us"] = metric{Value: medianOf(qres), Unit: "us", N: len(qres)}

	// Layer tables.
	ops := float64(rp.opsK)
	self := selfTimes(t.spans)
	rtt := 0.0
	for i := 0; i < rp.k; i++ {
		rtt += float64(seg[i].rtt)
	}
	total := rtt / ops / 1e3
	tracedOps := 0
	for _, b := range seg {
		tracedOps += len(b.ops)
	}
	rows := []layerRow{
		{"generator", float64(self["gen.batch"]) / float64(tracedOps) / 1e3, "gen.batch self time: due to client call"},
		{"wire decode", rp.decodePerOp / 1e3, "Decoder.NextReuse + UnmarshalInterned"},
		{"most commit", m["most.commit_ns_per_op"].Value / 1e3, "Database.SetMotion, no listeners, no WAL"},
		{"most WAL", m["most.wal_ns_per_op"].Value / 1e3, "SetMotionProv with a WAL, minus commit"},
		{"query maintain", m["query.maintain_ns_per_update"].Value / 1e3, "SetMotion with engine+subscriptions, minus commit and encode"},
		{"wire answer encode", float64(self["wire.answer_encode"]) / ops / 1e3, "AppendRelation + EncodeFrame(OpNotify)"},
	}
	layered := 0.0
	for _, row := range rows[1:] {
		layered += row.perOp
	}
	rows = append(rows, layerRow{"residual (server, network)", total - layered, "round trip minus every layer above"})
	printLayerTable(r.log, r.cfg.workload+" update path", "committed update", rows, total)
	qrows, qtotal := rp.queryTable(tqs.P50 * 1e3)
	printLayerTable(r.log, r.cfg.workload+" query path", "query (median round trip)", qrows, qtotal)
	r.log("tracing overhead: update p50 %+.4f ms, query p50 %+.4f ms (traced half minus untraced half)",
		m["trace.overhead_update_ms"].Value, m["trace.overhead_query_ms"].Value)

	path := filepath.Join(filepath.Dir(r.cfg.out), fmt.Sprintf("spans-%s-%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return nil, err
	}
	r.log("spans: %d written to %s", len(t.spans), path)
	return r.result(m, nil)
}

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.d
	}
	return out
}

func sortByClock(bs []appliedBatch) {
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].clock < bs[j].clock })
}

// tracedQuery is one query round trip of the traced half.
type tracedQuery struct {
	name string
	rtt  time.Duration
}

// replayer replays the traced batches in process, one layer per pass.
type replayer struct {
	r      *run
	t      *tracer
	prefix []appliedBatch // applied before the traced half: replayed untimed
	seg    []appliedBatch // the traced half's batches
	opts   query.Options

	k, opsK     int       // batches (and their ops) every pass replays
	commitDur   []float64 // per batch, ns
	walDur      []float64 // per batch, commit + WAL, ns
	maintainDur []float64 // per batch, commit + maintain + encode, ns
	decodePerOp float64   // ns
	encodeNs    float64   // answer encoding inside the maintenance pass
	flipMs      float64   // sentinel flip: commit + maintain + encode
	queryCost   map[string]float64
	parseUs     map[string]float64
	evalMs      map[string]float64
	encUs       map[string]float64
}

// fresh builds the seed database and applies the untraced batches.
func (p *replayer) fresh() (*most.Database, error) {
	db, err := most.LoadSnapshotJSON(p.r.w.snap)
	if err != nil {
		return nil, err
	}
	for _, b := range p.prefix {
		advanceTo(db, b.clock)
		for _, op := range b.ops {
			if err := db.SetMotion(most.ObjectID(op.ID), vec(op)); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func advanceTo(db *most.Database, clock temporal.Tick) {
	if d := clock - db.Now(); d > 0 {
		db.Advance(d)
	}
}

// timedPass replays the first n traced batches through apply, one root
// span per batch, and returns each batch's duration in ns.
func (p *replayer) timedPass(name string, db *most.Database, n int, apply func(i, j int, op wire.UpdateOp) error) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		b := p.seg[i]
		advanceTo(db, b.clock)
		sp := p.t.root(name, int64(i))
		for j, op := range b.ops {
			if err := apply(i, j, op); err != nil {
				return nil, err
			}
		}
		p.t.end(sp)
		out[i] = float64(sp.dur())
	}
	return out, nil
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func (p *replayer) run(m map[string]metric, frames [][]byte) error {
	if err := p.maintainPass(m); err != nil {
		return fmt.Errorf("maintain pass: %w", err)
	}
	for i := 0; i < p.k; i++ {
		p.opsK += len(p.seg[i].ops)
	}
	ops := float64(p.opsK)

	dbA, err := p.fresh()
	if err != nil {
		return err
	}
	p.commitDur, err = p.timedPass("replay.commit", dbA, p.k, func(_, _ int, op wire.UpdateOp) error {
		return dbA.SetMotion(most.ObjectID(op.ID), vec(op))
	})
	if err != nil {
		return fmt.Errorf("commit pass: %w", err)
	}
	commit := sum(p.commitDur)
	m["most.commit_ns_per_op"] = metric{Value: commit / ops, Unit: "ns", N: p.opsK}
	m["query.maintain_ns_per_update"] = metric{Value: (sum(p.maintainDur) - p.encodeNs - commit) / ops, Unit: "ns", N: p.opsK}

	if err := p.walPass(m, commit); err != nil {
		return fmt.Errorf("wal pass: %w", err)
	}
	if err := p.flushPass(m); err != nil {
		return fmt.Errorf("flush pass: %w", err)
	}
	if err := p.decodePass(m, frames); err != nil {
		return fmt.Errorf("decode pass: %w", err)
	}
	if err := p.queryPass(m, dbA); err != nil {
		return fmt.Errorf("query pass: %w", err)
	}
	if err := p.serverPass(m); err != nil {
		return fmt.Errorf("server pass: %w", err)
	}
	return nil
}
