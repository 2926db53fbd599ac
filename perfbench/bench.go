package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/wire"
)

// Repetitions whose lower quartile the set-up and recovery figures are.
const (
	setupReps    = 9
	recoveryReps = 31
)

// runWorkload runs one workload end to end: set-up (repeated, lower
// quartile reported), the measured window, the output checks, and the kill/restart
// durability check behind recovery_s.  With cfg.trace it instead reports
// the per-layer metrics (trace.go).
func runWorkload(cfg config, logf func(string, ...any)) (*result, error) {
	sh := shapes[cfg.workload]
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.out)

	w, err := buildWorld(cfg.seed, cfg.toy)
	if err != nil {
		return nil, fmt.Errorf("generate city: %w", err)
	}
	r := &run{cfg: cfg, sh: sh, w: w, state: filepath.Join(cfg.out, "state.json"), log: logf}
	if err := w.writeState(r.state); err != nil {
		return nil, err
	}
	defer r.teardown()

	reps := setupReps
	if cfg.toy {
		reps = 1
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		d, err := r.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if rep < reps-1 {
			r.teardown()
		}
	}

	if cfg.trace {
		return r.traced()
	}

	win, err := r.measureWindow(cfg.window)
	if err != nil {
		return nil, err
	}
	m, info, err := r.metrics(win)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = metric{Value: lowerQuartile(setups), Unit: "s", N: len(setups)}
	r.checks()
	rec, err := r.restarts(recoveryReps)
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), rec...)
	sort.Float64s(sorted)
	r.log("recovery: %d restarts, fastest %.4fs, median %.4fs, slowest %.4fs", len(rec), sorted[0], median(sorted), sorted[len(sorted)-1])
	info["recovery_s"] = metric{Value: lowerQuartile(rec), Unit: "s", N: len(rec),
		Note: "SIGKILL leaves the page cache intact: this checks WAL replay, not device flush"}
	if r.edgeChecked > 0 {
		info["subs_edge_rows"] = metric{Value: float64(r.edgeRows), Unit: "count", N: r.edgeChecked,
			Note: fmt.Sprintf("of the subscription rows checked; more than %.0f%% fails the run (boundary.go)", 100*maxEdgeShare)}
	}
	return r.result(m, info)
}

// window is what one measured window records.
type window struct {
	t0, end    time.Time
	cpu0, cpu1 time.Duration // server child CPU at the start and end
	rx0, rx1   int64         // generator bytes received at the start and end
	genCPU     time.Duration
	rssMB      float64 // server peak RSS after rssCycles replay cycles
	rssCycles  int
	upd, qry   []sample
	notify     []sample
	lag        []time.Duration
}

// measureWindow drives the traffic for d and collects what it cost.
func (r *run) measureWindow(d time.Duration) (*window, error) {
	r.mu.Lock()
	r.updLat, r.qryLat, r.genLag = nil, nil, nil
	r.mu.Unlock()
	r.sent.mu.Lock()
	r.sent.lat = nil
	r.sent.mu.Unlock()
	// The server's peak RSS is read when the window has committed
	// rssCycles whole replay cycles, so that every run reads it after the
	// same work.  The durable server keeps an in-memory log of every
	// update, so a reading at the end of the window would grow with the
	// throughput of the run.  The toy city of the tests, whose short
	// windows may not finish a cycle, reads it at the end of the window.
	cycles := r.sh.rssCycles
	if r.cfg.toy {
		cycles = 0
	}
	r.mu.Lock()
	r.rssMB = math.NaN()
	r.mu.Unlock()
	if cycles > 0 {
		r.rssMark.Store(r.cityOps.Load() + int64(cycles*r.w.stream.events))
	}
	win := &window{rssCycles: cycles}
	gen0, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	if win.cpu0, err = procCPU(r.ch.pid()); err != nil {
		return nil, err
	}
	win.rx0 = r.nc.rx.Load()
	win.t0 = time.Now()
	r.drive(win.t0.Add(d))
	win.end = time.Now()
	win.rx1 = r.nc.rx.Load()
	if win.cpu1, err = procCPU(r.ch.pid()); err != nil {
		return nil, err
	}
	gen1, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	r.rssMark.Store(0)
	if cycles == 0 {
		if win.rssMB, err = procHWM(r.ch.pid()); err != nil {
			return nil, err
		}
	}
	win.genCPU = gen1 - gen0
	r.mu.Lock()
	if cycles > 0 {
		win.rssMB = r.rssMB
	}
	win.upd, win.qry, win.lag = r.updLat, r.qryLat, r.genLag
	r.mu.Unlock()
	r.sent.mu.Lock()
	win.notify = append([]sample(nil), r.sent.lat...)
	r.sent.mu.Unlock()
	return win, nil
}

// metrics derives the end-to-end figures of a window: the benchmark's
// metrics in m, and in info the timings, which are printed but are not
// among the benchmark's metrics because the host moves them by more than
// any bound (README.md, Timings).  update_tput, server_cpu_us_per_op and
// rx_bytes_per_op are taken over the whole window, so a checkpoint or a
// garbage collection counts in them.  Interference from outside the
// benchmark (other guests on the host slow its CPUs, in bursts of a
// fraction of a second) only ever adds time, so each latency is the p50
// over work items, each item's round trip the lower quartile of its
// repetitions: every replay cycle repeats the same work items (itemKey).
func (r *run) metrics(w *window) (m, info map[string]metric, err error) {
	updates, total := opsOf(w.upd), opsOf(r.ops(w))
	if updates == 0 || total == 0 {
		return nil, nil, fmt.Errorf("no operation completed in the window")
	}
	ops := float64(total)
	m, info = map[string]metric{}, map[string]metric{}
	info["update_tput"] = metric{Value: float64(updates) / w.end.Sub(w.t0).Seconds(), Unit: "updates/s", N: updates}
	addTail(info, "update", w.upd)
	addTail(info, "notify", w.notify)
	addTail(info, "query", w.qry)
	info["server_cpu_us_per_op"] = metric{Value: float64((w.cpu1 - w.cpu0).Microseconds()) / ops, Unit: "us", N: total}
	m["server_rss_mb"] = metric{Value: w.rssMB, Unit: "MiB",
		Note: fmt.Sprintf("after %d replay cycles", w.rssCycles)}
	m["rx_bytes_per_op"] = metric{Value: float64(w.rx1-w.rx0) / ops, Unit: "bytes", N: total}
	r.log("window %.2fs: %d city updates, %d queries, %d flips; generator cpu %.1f us/op",
		w.end.Sub(w.t0).Seconds(), updates, len(w.qry), len(w.notify), float64(w.genCPU.Microseconds())/ops)
	return m, info, nil
}

// ops are the workload's counted ops: updates, or queries on query.
func (r *run) ops(w *window) []sample {
	if r.sh.trickle > 0 {
		return w.qry
	}
	return w.upd
}

// opsOf counts the ops the samples carried.
func opsOf(ss []sample) int {
	n := 0
	for _, s := range ss {
		n += s.ops
	}
	return n
}

// addTail adds <prefix>_p50_ms and <prefix>_p99_ms to info.  The p50
// is taken over the work items, each the lower quartile of its
// repetitions (byItem).  The tail, which interference decides as much as
// the program, is the median of the tails of groups of consecutive
// samples: as many groups as leave 1000 samples, a p99's worth, to each.
// A short series is one group, whose tail is the highest percentile its
// sample count supports (tailPct).  Percentiles weigh each sample by its
// ops (weightedTail): a batch's round trip counts once per city update it
// carried, so update_p50_ms is the round trip the median update saw.
func addTail(info map[string]metric, prefix string, ss []sample) {
	var counted []sample
	for _, s := range ss {
		if s.ops > 0 {
			counted = append(counted, s)
		}
	}
	n := len(counted)
	groups := max(n/1000, 1)
	var tails []float64
	pct := 100.0
	for g := 0; g < groups; g++ {
		t := weightedTail(counted[g*n/groups : (g+1)*n/groups])
		tails = append(tails, t.Tail)
		pct = math.Min(pct, t.TailP)
	}
	items := byItem(counted)
	info[prefix+"_p50_ms"] = metric{Value: weightedTail(items).P50, Unit: "ms", N: n,
		Note: fmt.Sprintf("over %d work items", len(items))}
	info[prefix+"_p99_ms"] = metric{Value: medianOf(tails), Unit: "ms", N: n, Note: fmt.Sprintf("(p%.4g)", pct)}
}

// checks are the output checks; each failure fails the run.
func (r *run) checks() {
	s := r.sent
	if !s.await(10 * time.Second) {
		r.check(false, "sentinel flip %d was never observed", s.flips)
	}
	s.mu.Lock()
	flips, seen := s.flips, s.seen
	s.mu.Unlock()
	r.check(flips == seen && flips > 0, "sentinel: %d flips, %d observed", flips, seen)
	if len(r.subs) > 0 {
		r.stir()
	}

	ref, err := r.reference()
	if err != nil {
		r.check(false, "reference replay: %v", err)
		return
	}
	if r.cfg.workload == "ingest" {
		sent, applied := r.sentOps.Load(), r.applOps.Load()
		r.check(sent == applied, "ingest: server applied %d ops, generator sent %d", applied, sent)
	}
	eng := query.NewEngine(ref)
	c := r.conns[len(r.conns)-1]
	now := ref.Now()
	// Every instantaneous template against the reference fed the same ops.
	for _, tpl := range r.w.cat.Instantaneous() {
		at, rows, err := c.Query(tpl.Src, r.w.spec.Horizon)
		if err != nil {
			r.check(false, "final query %s: %v", tpl.Name, err)
			continue
		}
		want, err := refRows(eng, r.w.regions, tpl.Src, r.w.spec.Horizon)
		if err != nil {
			r.check(false, "reference query %s: %v", tpl.Name, err)
			continue
		}
		r.check(at == now && canonRows(rows) == canonRows(want),
			"%s at tick %d: server %d rows, reference %d rows at tick %d", tpl.Name, at, len(rows), len(want), now)
	}
	// Every subscription presents what a fresh evaluation of its template
	// presents at the final tick, but for exact boundary crossings
	// (boundary.go).
	var rowsChecked int
	for _, s := range r.subs {
		want, err := refRows(eng, r.w.regions, s.tpl.Src, r.w.spec.Horizon)
		if err != nil {
			r.check(false, "reference %s: %v", s.tpl.Name, err)
			continue
		}
		var got [][]wire.Value
		var bad, edge int
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			ans, _, err := s.a.Answer()
			if err != nil {
				r.check(false, "subscription %s: %v", s.tpl.Name, err)
				break
			}
			got = wire.RowsAt(ans, now)
			extra, missing := rowDiff(got, want)
			bad, edge = len(missing), 0
			for _, row := range extra {
				if edgeRow(ref, r.w.regions, s.tpl.Src, row, now) {
					edge++
				} else {
					bad++
				}
			}
			if bad == 0 || time.Now().After(deadline) {
				break
			}
		}
		r.check(bad == 0, "subscription %s: %d rows at tick %d differ from a fresh evaluation", s.tpl.Name, bad, now)
		r.edgeRows += edge
		rowsChecked += max(len(got), len(want))
	}
	if len(r.subs) > 0 {
		r.check(float64(r.edgeRows) <= maxEdgeShare*float64(rowsChecked),
			"subscriptions: %d of %d rows differ only by an exact boundary crossing, more than %.0f%%", r.edgeRows, rowsChecked, 100*maxEdgeShare)
		r.edgeChecked = rowsChecked
	}
}

// rowDiff returns the rows only a holds and the rows only b holds.
func rowDiff(a, b [][]wire.Value) (onlyA, onlyB [][]wire.Value) {
	key := func(row []wire.Value) string { return canonRows([][]wire.Value{row}) }
	in := map[string]int{}
	for _, row := range a {
		in[key(row)]++
	}
	for _, row := range b {
		in[key(row)]--
	}
	for _, row := range a {
		if k := key(row); in[k] > 0 {
			onlyA = append(onlyA, row)
			in[k]--
		}
	}
	for _, row := range b {
		if k := key(row); in[k] < 0 {
			onlyB = append(onlyB, row)
			in[k]++
		}
	}
	return onlyA, onlyB
}

// stir aligns the continuous queries' windows before they are compared
// with fresh evaluations, as the repository's oracles do: Answer(CQ) is
// anchored at its last reevaluation, so it equals an evaluation anchored
// at Now only when every class a query ranges over had an update at Now.
// After one more tick, one car and one bus re-issue their current motion
// vector, a no-op on the state that re-anchors the queries.
func (r *run) stir() {
	c := r.conns[0]
	if !r.advance(c) {
		return
	}
	var ops []wire.UpdateOp
	for _, id := range []string{string(r.w.city.Cars[0].ID), r.w.city.Buses[0].Plate} {
		op := wire.UpdateOp{Op: wire.OpSetMotion, ID: id}
		r.mu.Lock()
		for i := len(r.applied) - 1; i >= 0 && op.VX == 0 && op.VY == 0; i-- {
			if last, ok := lastOp(r.applied[i].ops, id); ok {
				op = last
				break
			}
		}
		r.mu.Unlock()
		ops = append(ops, op)
	}
	r.sendBatch(c, ops, 0, 0, time.Now(), r.now())
}

// lastOp returns the last op on id in ops.
func lastOp(ops []wire.UpdateOp, id string) (wire.UpdateOp, bool) {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].ID == id {
			return ops[i], true
		}
	}
	return wire.UpdateOp{}, false
}

// restarts SIGKILLs the child and restarts it on the same directory, n
// times, timing each restart until the server answers again.  After the
// first restart the recovered state must equal the reference: every
// acknowledged update survived the kill and nothing else was applied.
func (r *run) restarts(n int) ([]float64, error) {
	if r.cfg.toy {
		n = 1
	}
	r.padLog()
	ref, err := r.reference()
	if err != nil {
		return nil, err
	}
	if r.refSnap, err = ref.SnapshotJSON(); err != nil {
		return nil, err
	}
	r.teardown()
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ch, err := startChild(r.state, r.dir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		r.ch = ch
		c, err := dialConn(ch, &r.nc, fmt.Sprintf("perfbench-recover-%d", i))
		if err != nil {
			return nil, fmt.Errorf("reconnect: %w", err)
		}
		if _, _, err := c.Query(sentinelSrc, r.w.spec.Horizon); err != nil {
			c.Close()
			return nil, fmt.Errorf("first query after restart: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
		if i == 0 {
			r.durability(c, ch)
		}
		c.Close()
		r.ch.kill()
		r.ch = nil
	}
	return out, nil
}

// padLog sends no-op batches (the parked probe re-parked, padOps times
// each) until the server checkpoints, then half a checkpoint cadence more,
// so every run recovers from a checkpoint plus the same log tail, long
// enough that replaying it, not starting the process, dominates
// recovery_s.  The server checkpoints after every checkpointEvery
// mutating requests, and the generator sent every mutating request the
// server has seen.
func (r *run) padLog() {
	const padOps = 32
	c := r.conns[0]
	ops := make([]wire.UpdateOp, padOps)
	for i := range ops {
		ops[i] = flipOp(false)
	}
	pad := func(n int64) {
		for i := int64(0); i < n; i++ {
			if !r.sendBatch(c, ops, 0, 0, time.Now(), r.now()) {
				return
			}
		}
	}
	pad((checkpointEvery - r.mutations.Load()%checkpointEvery) % checkpointEvery)
	pad(checkpointEvery / 2)
}

// durability compares the recovered database with the reference.  The
// raw version counter is reported, not asserted: a checkpoint restore
// restarts it (Database.Version counts the in-memory update log, which a
// snapshot does not carry), so after any checkpoint it legitimately
// differs from the last acknowledged version.
func (r *run) durability(c *client.Client, ch *child) {
	got, err := c.SnapshotSave()
	if err != nil {
		r.check(false, "snapshot after restart: %v", err)
		return
	}
	r.check(string(got) == string(r.refSnap),
		"recovered state differs from the reference of every acknowledged update (%d vs %d bytes)", len(got), len(r.refSnap))
	r.log("durability: recovered state equals every acknowledged update; recovered version counter %d, last acknowledged version %d (restarts at checkpoint restore)",
		ch.version, r.lastVer)
}

// result assembles the reported object.  A figure that could not be
// computed (NaN or infinite: an empty series, a zero denominator) is an
// error, not a figure: no value stands in for it.
func (r *run) result(m, info map[string]metric) (*result, error) {
	r.failMu.Lock()
	for _, f := range r.failures {
		r.log("FAILED: %s", f)
	}
	r.failMu.Unlock()
	for _, ms := range []map[string]metric{m, info} {
		for name, v := range ms {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return nil, fmt.Errorf("%s could not be computed (%v, n=%d)", name, v.Value, v.N)
			}
		}
	}
	failed := int(r.failed.Load())
	return &result{Correct: failed == 0, Attempted: int(r.attempted.Load()), Failed: failed, Metrics: m, Info: info}, nil
}
