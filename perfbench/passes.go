package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/cluster"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/ftl/eval"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
)

// maintainPass replays the traced batches with the engine and the
// workload's subscriptions attached.  Each install is converted once per
// plan (as the server's conversion memo does) and encoded as one Notify
// frame per subscriber.  The pass stops after maintainBudget; every other
// pass replays the same batches.
func (p *replayer) maintainPass(m map[string]metric) error {
	db, err := p.fresh()
	if err != nil {
		return err
	}
	eng := query.NewEngine(db)
	reg := obs.New()
	eng.Instrument(reg)

	var (
		cur       atomic.Pointer[span] // the batch being replayed
		mu        sync.Mutex
		lastRel   = map[uint64]*eval.Relation{}
		rowsOf    = map[uint64][]wire.AnswerRow{}
		installs  int
		rows      int
		notifyB   int
		kept      [][]byte
		seqs      = map[int]uint64{}
		encodeDur int64
	)
	tpls := append(subscriberMix(p.r.w.cat, p.r.sh.subs), city.Template{Name: "sentinel", Src: sentinelSrc})
	plans := map[uint64]bool{}
	var regDur time.Duration
	for h, tpl := range tpls {
		q, err := ftl.Parse(tpl.Src)
		if err != nil {
			return err
		}
		t0 := time.Now()
		cq, err := eng.Continuous(q, p.opts)
		regDur += time.Since(t0)
		if err != nil {
			return fmt.Errorf("register %s: %w", tpl.Name, err)
		}
		plan := cq.PlanID()
		plans[plan] = true
		h := h
		err = cq.Subscribe(func(rel *eval.Relation) {
			mu.Lock()
			defer mu.Unlock()
			sp := p.t.start("wire.answer_encode", cur.Load())
			if lastRel[plan] != rel {
				lastRel[plan] = rel
				rowsOf[plan] = wire.AppendRelation(rowsOf[plan][:0], rel)
				installs++
				rows += len(rowsOf[plan])
			}
			seqs[h]++
			f, err := wire.EncodeFrame(wire.ProtocolV2, wire.OpNotify, 0, &wire.Notify{SubID: uint64(h + 1), Seq: seqs[h], Answer: rowsOf[plan]})
			p.t.end(sp)
			encodeDur += sp.dur()
			if err != nil {
				return
			}
			notifyB += wire.HeaderSize + len(f.Payload)
			if len(kept) < keptNotifies {
				buf, _ := wire.AppendFrame(nil, f)
				kept = append(kept, buf)
			}
		})
		if err != nil {
			return err
		}
	}
	m["query.register_ms_per_sub"] = metric{Value: float64(regDur.Microseconds()) / 1e3 / float64(len(tpls)), Unit: "ms", N: len(tpls)}
	m["query.shared_plans"] = metric{Value: float64(len(plans)), Unit: "count"}

	deadline := time.Now().Add(maintainBudget)
	if p.r.cfg.toy {
		deadline = time.Now().Add(maintainBudget / 8)
	}
	for i := 0; i < len(p.seg) && (i == 0 || time.Now().Before(deadline)); i++ {
		b := p.seg[i]
		advanceTo(db, b.clock)
		sp := p.t.root("replay.maintain", int64(i))
		cur.Store(sp)
		for _, op := range b.ops {
			if err := db.SetMotion(most.ObjectID(op.ID), vec(op)); err != nil {
				return err
			}
		}
		p.t.end(sp)
		p.maintainDur = append(p.maintainDur, float64(sp.dur()))
		p.k++
	}
	mu.Lock()
	p.encodeNs = float64(encodeDur)
	updates := 0
	for i := 0; i < p.k; i++ {
		updates += len(p.seg[i].ops)
	}
	u := float64(updates)
	m["query.installs_per_update"] = metric{Value: float64(installs) / u, Unit: "count", N: updates}
	m["query.rows_per_install"] = metric{Value: float64(rows) / float64(installs), Unit: "count", N: installs}
	m["wire.answer_rows_per_update"] = metric{Value: float64(rows) / u, Unit: "count", N: updates}
	m["wire.answer_encode_ns_per_row"] = metric{Value: float64(encodeDur) / float64(rows), Unit: "ns", N: rows}
	m["wire.notify_bytes_per_update"] = metric{Value: float64(notifyB) / u, Unit: "bytes", N: updates}
	frames := kept
	mu.Unlock()

	delta := reg.Counter("query.continuous.delta").Value()
	full := reg.Counter("query.continuous.full").Value()
	skipped := reg.Counter("query.continuous.skipped_irrelevant").Value()
	suppressed := reg.Counter("query.continuous.suppressed").Value()
	rounds := float64(delta + full)
	m["query.delta_frac"] = metric{Value: float64(delta) / rounds, Unit: "frac"}
	m["query.skipped_frac"] = metric{Value: float64(skipped) / float64(skipped+delta+full), Unit: "frac"}
	m["query.suppressed_frac"] = metric{Value: float64(suppressed) / rounds, Unit: "frac"}

	// Decode the kept Notify frames as the client does.
	var decRows int
	t0 := time.Now()
	for _, buf := range frames {
		f, err := wire.NewDecoder(bytes.NewReader(buf), 0).Next()
		if err != nil {
			return err
		}
		var n wire.Notify
		if err := wire.Unmarshal(f, &n); err != nil {
			return err
		}
		decRows += len(n.Answer)
	}
	m["wire.notify_decode_ns_per_row"] = metric{Value: float64(time.Since(t0).Nanoseconds()) / float64(decRows), Unit: "ns", N: decRows}

	// The sentinel's own path: a probe flip, its maintenance and encode.
	var flips []float64
	on := false
	for i := 0; i < 100; i++ {
		on = !on
		t0 := time.Now()
		if err := db.SetMotion(sentinelProbe, vec(flipOp(on))); err != nil {
			return err
		}
		flips = append(flips, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	p.flipMs = medianOf(flips)
	return nil
}

// walPass replays the batches with a write-ahead log attached; the WAL's
// cost is this pass minus the commit pass.  It then times a checkpoint
// and a recovery at the size the replay reached.
func (p *replayer) walPass(m map[string]metric, commit float64) error {
	db, err := p.fresh()
	if err != nil {
		return err
	}
	dir := filepath.Join(p.r.cfg.out, "replay-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	walPath, snapPath := filepath.Join(dir, "wal.log"), filepath.Join(dir, "checkpoint.json")
	w, err := most.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := db.AttachWAL(w); err != nil {
		return err
	}
	size0 := fileSize(walPath)
	p.walDur, err = p.timedPass("replay.wal", db, p.k, func(i, j int, op wire.UpdateOp) error {
		return db.SetMotionProv(most.ObjectID(op.ID), vec(op), &most.Prov{Client: "replay", Req: uint64(i + 1), Op: j})
	})
	if err != nil {
		return err
	}
	ops := float64(p.opsK)
	m["most.wal_ns_per_op"] = metric{Value: (sum(p.walDur) - commit) / ops, Unit: "ns", N: p.opsK}
	m["most.wal_bytes_per_op"] = metric{Value: float64(fileSize(walPath)-size0) / ops, Unit: "bytes", N: p.opsK}

	var cps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := db.Checkpoint(snapPath); err != nil {
			return err
		}
		cps = append(cps, float64(time.Since(t0).Microseconds())/1e3)
	}
	m["most.checkpoint_ms"] = metric{Value: medianOf(cps), Unit: "ms", N: len(cps)}
	// A log tail of half the server's checkpoint cadence, then recovery.
	tail := p.k - checkpointEvery/2
	if tail < 0 {
		tail = 0
	}
	for i := tail; i < p.k; i++ {
		for j, op := range p.seg[i].ops {
			if err := db.SetMotionProv(most.ObjectID(op.ID), vec(op), &most.Prov{Client: "replay", Req: uint64(i + 1), Op: j}); err != nil {
				return err
			}
		}
	}
	var recs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := most.RecoverFiles(snapPath, walPath); err != nil {
			return err
		}
		recs = append(recs, float64(time.Since(t0).Microseconds())/1e3)
	}
	m["most.recover_ms"] = metric{Value: medianOf(recs), Unit: "ms", N: len(recs)}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// flushPass replays the batches from two writers, split by lane, into an
// instrumented WAL and counts how many writes group commit needed.
func (p *replayer) flushPass(m map[string]metric) error {
	db, err := p.fresh()
	if err != nil {
		return err
	}
	reg := obs.New()
	db.Instrument(reg)
	dir := filepath.Join(p.r.cfg.out, "replay-flush")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := most.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	defer w.Close()
	if err := db.AttachWAL(w); err != nil {
		return err
	}
	flushes := reg.Counter("wal.flushes")
	f0 := flushes.Value()
	var errMu sync.Mutex
	var firstErr error
	for lo := 0; lo < p.k; {
		hi := lo
		for hi < p.k && p.seg[hi].clock == p.seg[lo].clock {
			hi++
		}
		advanceTo(db, p.seg[lo].clock)
		var wg sync.WaitGroup
		for l := 0; l < 2; l++ {
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					for j, op := range p.seg[i].ops {
						if lane(op.ID, 2) != l {
							continue
						}
						if err := db.SetMotionProv(most.ObjectID(op.ID), vec(op), &most.Prov{Client: "replay", Req: uint64(i + 1), Op: j}); err != nil {
							errMu.Lock()
							firstErr = err
							errMu.Unlock()
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		lo = hi
	}
	if firstErr != nil {
		return firstErr
	}
	m["most.wal_flushes_per_kop"] = metric{Value: 1000 * float64(flushes.Value()-f0) / float64(p.opsK), Unit: "count", N: p.opsK}
	return nil
}

// decodePass decodes the traced batch frames as the server session does.
func (p *replayer) decodePass(m map[string]metric, frames [][]byte) error {
	var buf []byte
	for _, f := range frames {
		buf = append(buf, f...)
	}
	var ops int
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		dec := wire.NewDecoder(bytes.NewReader(buf), 0)
		in := wire.Interner{}
		var req wire.UpdateBatchReq
		ops = 0
		t0 := time.Now()
		for {
			sp := p.t.root("wire.decode", int64(ops))
			f, err := dec.NextReuse()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			req.Ops = req.Ops[:0]
			if err := wire.UnmarshalInterned(f, &req, in); err != nil {
				return err
			}
			p.t.end(sp)
			ops += len(req.Ops)
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	p.decodePerOp = medianOf(reps)
	m["wire.batch_decode_ns_per_op"] = metric{Value: p.decodePerOp, Unit: "ns", N: ops}
	m["wire.batch_bytes_per_op"] = metric{Value: float64(len(buf)) / float64(ops), Unit: "bytes", N: ops}
	return nil
}

// queryPass times parse, evaluation and result encoding of every
// instantaneous template on the replayed end state.
func (p *replayer) queryPass(m map[string]metric, db *most.Database) error {
	eng := query.NewEngine(db)
	p.queryCost, p.parseUs, p.evalMs, p.encUs = map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	var parseAll, evalAll, encNs []float64
	var rowsAll, encRows int
	slowest := 0.0
	for _, tpl := range p.r.w.cat.Instantaneous() {
		const parses = 200
		t0 := time.Now()
		var q *ftl.Query
		for i := 0; i < parses; i++ {
			var err error
			if q, err = ftl.Parse(tpl.Src); err != nil {
				return err
			}
		}
		parseUs := float64(time.Since(t0).Nanoseconds()) / parses / 1e3
		var evals, encs []float64
		for rep := 0; rep < 5; rep++ {
			sp := p.t.root("query.eval", int64(rep))
			t0 := time.Now()
			rows, err := eng.Instantaneous(q, p.opts)
			if err != nil {
				return err
			}
			evals = append(evals, float64(time.Since(t0).Nanoseconds())/1e6)
			p.t.end(sp)
			vals := make([][]eval.Val, len(rows))
			for i, row := range rows {
				vals[i] = row
			}
			sp = p.t.root("wire.result_encode", int64(rep))
			t0 = time.Now()
			if _, err := wire.EncodeFrame(wire.ProtocolV2, wire.OpResult, 1, &wire.QueryResp{Now: db.Now(), Rows: wire.FromRows(vals)}); err != nil {
				return err
			}
			encs = append(encs, float64(time.Since(t0).Nanoseconds()))
			p.t.end(sp)
			if rep == 0 {
				rowsAll += len(rows)
			}
			encRows += len(rows)
		}
		e, enc := medianOf(evals), medianOf(encs)
		p.parseUs[tpl.Name], p.evalMs[tpl.Name], p.encUs[tpl.Name] = parseUs, e, enc/1e3
		p.queryCost[tpl.Name] = parseUs*1e3 + e*1e6 + enc
		parseAll = append(parseAll, parseUs)
		evalAll = append(evalAll, e)
		encNs = append(encNs, sum(encs))
		if e > slowest {
			slowest = e
		}
	}
	n := float64(len(evalAll))
	m["ftl.parse_us_per_query"] = metric{Value: sum(parseAll) / n, Unit: "us", N: len(parseAll)}
	m["query.eval_ms_per_query"] = metric{Value: sum(evalAll) / n, Unit: "ms", N: len(evalAll)}
	m["query.eval_ms_slowest_template"] = metric{Value: slowest, Unit: "ms"}
	m["wire.result_rows_per_query"] = metric{Value: float64(rowsAll) / n, Unit: "count"}
	m["wire.result_encode_ns_per_row"] = metric{Value: sum(encNs) / float64(encRows), Unit: "ns", N: encRows}
	return nil
}

// queryTable is the query path's layer table, per query.
func (p *replayer) queryTable(rttUs float64) ([]layerRow, float64) {
	var parse, ev, enc float64
	for name := range p.parseUs {
		parse += p.parseUs[name]
		ev += p.evalMs[name] * 1e3
		enc += p.encUs[name]
	}
	n := float64(max(len(p.parseUs), 1))
	rows := []layerRow{
		{"ftl parse", parse / n, "ftl.Parse"},
		{"query eval", ev / n, "Engine.Instantaneous, pre-parsed"},
		{"wire result encode", enc / n, "FromRows + EncodeFrame(QueryResp)"},
	}
	rows = append(rows, layerRow{"residual (server, network)", rttUs - (parse+ev+enc)/n, "round trip minus every layer above"})
	return rows, rttUs
}

// serverPass replays the first traced batches against three in-process
// servers — plain New, NewDurable, and a 3-node durable cluster behind a
// Router — interleaving them batch by batch so the ratios compare the same
// batches under the same conditions.  Every server starts from the state
// the generator's server held when the traced half began: the seed state
// with the untraced batches applied.
func (p *replayer) serverPass(m map[string]metric) error {
	dir := filepath.Join(p.r.cfg.out, "replay-servers")
	start, err := p.fresh()
	if err != nil {
		return err
	}
	snap, err := start.SnapshotJSON()
	if err != nil {
		return err
	}
	seed := func() (*most.Database, error) { return most.LoadSnapshotJSON(snap) }
	cfg := server.Config{BaseOptions: query.Options{Horizon: serverHorizon, Regions: p.r.w.regions}, CheckpointEvery: checkpointEvery}

	pdb, err := seed()
	if err != nil {
		return err
	}
	plain := server.New(pdb, query.NewEngine(pdb), cfg)
	if err := plain.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer plain.Abort()
	durable, _, err := server.NewDurable(filepath.Join(dir, "single"), cfg, func() *most.Database {
		db, _ := seed()
		return db
	})
	if err != nil {
		return err
	}
	if err := durable.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer durable.Abort()
	cl, err := cluster.Start(cluster.Config{
		Nodes: 3, GridX: 3, GridY: 1, Bounds: p.r.w.bounds(),
		Replicated: []string{city.BusClass.Name(), city.POIClass.Name()},
		Seed:       seed, Opts: cfg.BaseOptions,
		Durable: true, Dir: filepath.Join(dir, "cluster"), CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	router, err := cl.Router(nil)
	if err != nil {
		return err
	}
	defer router.Close()
	cp, err := client.Dial(plain.Addr().String(), client.WithTimeout(callTimeout))
	if err != nil {
		return err
	}
	defer cp.Close()
	cd, err := client.Dial(durable.Addr().String(), client.WithTimeout(callTimeout))
	if err != nil {
		return err
	}
	defer cd.Close()

	n := p.k
	if n > serverBatches {
		n = serverBatches
	}
	var rp, rd, rr, adv []float64
	var ops int
	clock := start.Now()
	timeIt := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0).Nanoseconds()) / 1e6, err
	}
	for i := 0; i < n; i++ {
		b := p.seg[i]
		if d := b.clock - clock; d > 0 {
			clock = b.clock
			if _, err := cp.Advance(d); err != nil {
				return err
			}
			if _, err := cd.Advance(d); err != nil {
				return err
			}
			ms, err := timeIt(func() error { _, err := router.Advance(d); return err })
			if err != nil {
				return err
			}
			adv = append(adv, ms)
		}
		for _, x := range []struct {
			out *[]float64
			c   interface {
				UpdateBatch([]wire.UpdateOp) (wire.UpdateBatchResp, error)
			}
		}{{&rp, cp}, {&rd, cd}, {&rr, router}} {
			ms, err := timeIt(func() error { _, err := x.c.UpdateBatch(b.ops); return err })
			if err != nil {
				return err
			}
			*x.out = append(*x.out, ms)
		}
		ops += len(b.ops)
	}
	m["server.durable_ratio"] = metric{Value: medianOf(rd) / medianOf(rp), Unit: "ratio", N: len(rd)}
	m["cluster.route_ratio"] = metric{Value: medianOf(rr) / medianOf(rd), Unit: "ratio", N: len(rr)}
	if len(adv) == 0 {
		ms, err := timeIt(func() error { _, err := router.Advance(1); return err })
		if err != nil {
			return err
		}
		adv = append(adv, ms)
	}
	m["cluster.advance_ms"] = metric{Value: medianOf(adv), Unit: "ms", N: len(adv)}
	var out, bounces uint64
	for i := 0; i < 3; i++ {
		o, _, _, b := cl.Node(i).Stats()
		out += o
		bounces += b
	}
	m["cluster.handoffs_per_kupdate"] = metric{Value: 1000 * float64(out) / float64(ops), Unit: "count", N: ops}
	m["cluster.bounces_per_kupdate"] = metric{Value: 1000 * float64(bounces) / float64(ops), Unit: "count", N: ops}

	var ratios []float64
	for rep := 0; rep < 3; rep++ {
		for _, tpl := range p.r.w.cat.Instantaneous() {
			rq, err := timeIt(func() error { _, _, err := router.Query(tpl.Src, p.r.w.spec.Horizon); return err })
			if err != nil {
				return err
			}
			sq, err := timeIt(func() error { _, _, err := cd.Query(tpl.Src, p.r.w.spec.Horizon); return err })
			if err != nil {
				return err
			}
			ratios = append(ratios, rq/sq)
		}
	}
	m["cluster.scatter_ratio"] = metric{Value: medianOf(ratios), Unit: "ratio", N: len(ratios)}
	return nil
}

// generateMs times generating the city, its database and its catalog.
func (p *replayer) generateMs() float64 {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := city.Generate(p.r.w.spec)
		if err != nil {
			continue
		}
		if _, err := c.Database(); err != nil {
			continue
		}
		c.Catalog()
		ts = append(ts, float64(time.Since(t0).Microseconds())/1e3)
	}
	return medianOf(ts)
}
