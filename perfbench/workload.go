package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// shape is what distinguishes the workloads.  Each makes one layer do
// most of the work (README.md explains which and why).
type shape struct {
	updaters   int           // closed-loop updater connections (0: open-loop trickle)
	subs       int           // catalog subscriptions, heavy/cheap mix
	queryEvery int           // one instantaneous query every N batches of the last updater
	trickle    time.Duration // query: open-loop write trickle beside a closed-loop querier; a batch of k ops is due k intervals after the previous one
	// awaitFlip makes the first updater wait, after each batch, until the
	// batch's sentinel flip has reached the subscriber connection, so the
	// generator never runs ahead of answer delivery and every batch
	// carries a flip.  The updates' rate then includes the notification
	// latency; `mostbench -city` couples its replay the same way, once per
	// tick.
	awaitFlip bool
	// rssCycles is how many whole replay cycles a measured window has
	// committed when it reads the server's peak RSS (see measureWindow).
	rssCycles int
}

// batchOps is the most city motion ops one UpdateBatch carries, the batch
// size of `mostbench -city`.  A batch never spans a clock advance, so a
// batch carries fewer when its updater's share of a tick runs out.
const batchOps = 64

// The query trickle offers 500 updates/s, about 3% of what ingest commits
// on the same host: a low load beside the reads.  It is fixed in updates,
// not batches, because batch sizes follow the schedule.
var shapes = map[string]shape{
	"alerts": {updaters: 1, subs: 24, queryEvery: 4, awaitFlip: true, rssCycles: 2},
	"ingest": {updaters: 2, queryEvery: 32, rssCycles: 20},
	"query":  {trickle: 2 * time.Millisecond, rssCycles: 1},
}

var workloadNames = []string{"alerts", "ingest", "query"}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	toy      bool   // tiny city and few repetitions, for tests
	out      string // directory for the run's files
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // sample count, 0 when not a sampled figure
	Note  string  `json:"-"`
}

// result is what a run reports.  Info holds figures printed beside the
// metrics but not part of the result object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"-"`
}

// run carries the state of one workload run.
type run struct {
	cfg   config
	sh    shape
	w     *world
	state string // state file path
	dir   string // data directory of the current set-up
	nc    netCounter
	log   func(format string, args ...any)

	ch    *child
	conns []*client.Client
	subs  []sub // catalog subscriptions
	sent  *sentinel

	attempted atomic.Int64
	failed    atomic.Int64
	failures  []string
	failMu    sync.Mutex

	// Recorded during the window.
	mu          sync.Mutex
	updLat      []sample
	qryLat      []sample
	genLag      []time.Duration
	applied     []appliedBatch
	clock       temporal.Tick // server clock after the last Advance
	tk          temporal.Tick // stream tick being replayed
	pos         atomic.Int64  // query: cycle position of the trickle's tick (itemKey)
	lastVer     uint64        // newest acknowledged UpdateBatchResp.Version
	cityOps     atomic.Int64  // committed city motion updates
	rssMark     atomic.Int64  // cityOps at which to read the server's peak RSS; 0: none
	rssMB       float64       // the reading, NaN until taken
	queries     atomic.Int64
	sentOps     atomic.Int64 // ops sent in update batches
	mutations   atomic.Int64 // mutating requests sent: batches and clock advances
	applOps     atomic.Int64 // ops the server reported applied
	refSnap     []byte       // reference database state after the window
	edgeRows    int          // subscription rows that differ only by an exact boundary crossing
	edgeChecked int          // subscription rows the check compared
	trace       *tracer      // non-nil while spans are recorded
	reqSeq      atomic.Int64 // request ids of traced calls
	tracedQ     []tracedQuery
	frames      [][]byte // encoded batch frames of the traced phase
}

// sample is one timed operation: when it completed, how long it took,
// how many of the workload's ops it carried, and which work item it was.
// Samples that share a key repeated the same work in different replay
// cycles (itemKey).
type sample struct {
	at  time.Time
	d   time.Duration
	ops int
	key int64
}

// itemKey names a work item by where it falls in the replay cycle: the
// cycle position of its tick, then up to two small indexes (an updater
// lane and a batch within the lane's share of the tick, or a template).
// Every cycle replays the same ops at the same position, so an item with
// one key does the same work in every cycle.
func itemKey(pos int64, a, b int) int64 {
	return pos<<32 | int64(a)<<20 | int64(b)
}

// sub is one catalog subscription held by the generator.
type sub struct {
	tpl city.Template
	a   *client.Subscription
}

// appliedBatch is one acknowledged batch, for the reference replay.
type appliedBatch struct {
	clock temporal.Tick
	ops   []wire.UpdateOp
	rtt   time.Duration
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	r.failMu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	r.failMu.Unlock()
}

// check counts one output check against the attempted operations.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// subscriberMix spreads n subscribers over the continuous catalog the way
// `mostbench -city` does: the heavy large-answer families get two
// subscribers each and the rest round-robin over the cheap families, so
// many subscribers share each plan.
func subscriberMix(cat *city.Catalog, n int) []city.Template {
	conts := cat.Continuous()
	var heavy, cheap []city.Template
	for _, tpl := range conts {
		switch tpl.Family {
		case "range_district", "corridor":
			heavy = append(heavy, tpl)
		default:
			cheap = append(cheap, tpl)
		}
	}
	if len(cheap) == 0 {
		cheap = conts
	}
	out := make([]city.Template, 0, n)
	for _, tpl := range heavy {
		for k := 0; k < 2 && len(out) < n; k++ {
			out = append(out, tpl)
		}
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, cheap[i%len(cheap)])
	}
	return out
}

// conns is how many generator connections every workload holds: two
// updaters on ingest, otherwise the writer plus the subscriber/querier.
const conns = 2

// setup starts the child on a fresh directory, dials the connections and
// registers every subscription; it returns the elapsed set-up time.
func (r *run) setup(rep int) (time.Duration, error) {
	r.dir = filepath.Join(r.cfg.out, fmt.Sprintf("data%d", rep))
	os.RemoveAll(r.dir)
	t0 := time.Now()
	ch, err := startChild(r.state, r.dir)
	if err != nil {
		return 0, err
	}
	r.ch = ch
	r.conns = nil
	for i := 0; i < conns; i++ {
		c, err := dialConn(ch, &r.nc, fmt.Sprintf("perfbench-%d-%d", rep, i))
		if err != nil {
			return 0, err
		}
		r.conns = append(r.conns, c)
	}
	// The subscriptions and the sentinel share the last connection.
	subConn := r.conns[len(r.conns)-1]
	r.subs = nil
	if r.sh.subs != 0 {
		for _, tpl := range subscriberMix(r.w.cat, r.sh.subs) {
			a, err := subConn.Subscribe(tpl.Src, r.w.spec.Horizon)
			if err != nil {
				return 0, fmt.Errorf("subscribe %s: %w", tpl.Name, err)
			}
			r.subs = append(r.subs, sub{tpl: tpl, a: a})
		}
	}
	a, err := subConn.Subscribe(sentinelSrc, r.w.spec.Horizon)
	if err != nil {
		return 0, fmt.Errorf("sentinel subscribe: %w", err)
	}
	r.sent = newSentinel(a)
	return time.Since(t0), nil
}

// teardown closes the connections and kills the child.
func (r *run) teardown() {
	if r.sent != nil {
		r.sent.stop()
		r.sent = nil
	}
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	if r.ch != nil {
		r.ch.kill()
		r.ch = nil
	}
}

// sentinel tracks the sentinel subscription.  At most one flip is in
// flight: a batch carries a flip only once the previous flip's answer has
// reached the client, so every flip changes the answer exactly once and
// each sample is one batch → one notification.
type sentinel struct {
	a        *client.Subscription
	mu       sync.Mutex
	on       bool      // state the last flip set
	pending  bool      // a flip is not yet observed
	sentAt   time.Time // when the pending flip's batch was sent
	sentOps  int       // city ops in the pending flip's batch
	sentKey  int64     // work item of the pending flip's batch
	lat      []sample
	flips    int // flips sent
	seen     int // flips whose answer reached the client
	observed chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
}

func newSentinel(a *client.Subscription) *sentinel {
	s := &sentinel{a: a, observed: make(chan struct{}, 1), done: make(chan struct{})}
	s.wg.Add(1)
	go s.watch()
	return s
}

func (s *sentinel) watch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.a.Updates():
		}
		rows, _, err := s.a.Answer()
		now := time.Now()
		if err != nil {
			continue
		}
		s.mu.Lock()
		if s.pending && (len(rows) > 0) == s.on {
			s.pending = false
			s.seen++
			s.lat = append(s.lat, sample{at: now, d: now.Sub(s.sentAt), ops: s.sentOps, key: s.sentKey})
			select {
			case s.observed <- struct{}{}:
			default:
			}
		}
		s.mu.Unlock()
	}
}

// flip returns the op to append to the next batch, which carries cityOps
// city ops, is the work item key and is sent at at, or false while a flip
// is still in flight.
// force waits (up to a deadline) for the in-flight flip, for the batch
// that parks the probe before the clock advances.
func (s *sentinel) flip(force bool, at time.Time, cityOps int, key int64) (wire.UpdateOp, bool) {
	s.mu.Lock()
	if s.pending && force {
		s.mu.Unlock()
		if !s.await(10 * time.Second) {
			return wire.UpdateOp{}, false
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if s.pending {
		return wire.UpdateOp{}, false
	}
	s.on = !s.on
	s.pending = true
	s.sentAt = at
	s.sentOps = cityOps
	s.sentKey = key
	s.flips++
	return flipOp(s.on), true
}

// isOn reports whether the probe is heading for the region.
func (s *sentinel) isOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.on
}

// await waits until no flip is in flight.
func (s *sentinel) await(d time.Duration) bool {
	deadline := time.After(d)
	for {
		s.mu.Lock()
		p := s.pending
		s.mu.Unlock()
		if !p {
			return true
		}
		select {
		case <-s.observed:
		case <-deadline:
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (s *sentinel) stop() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
}

// sendBatch sends one batch on c, timing it from due, and records it as
// work item key.
func (r *run) sendBatch(c *client.Client, ops []wire.UpdateOp, cityOps int, key int64, due time.Time, clock temporal.Tick) bool {
	r.attempted.Add(1)
	var root, sp *span
	if r.trace != nil {
		r.recordFrame(ops)
		root, sp = r.traceCall("gen.batch", "client.UpdateBatch", due)
	}
	r.sentOps.Add(int64(len(ops)))
	r.mutations.Add(1)
	resp, err := c.UpdateBatch(ops)
	d := time.Since(due)
	if sp != nil {
		r.trace.end(sp)
		r.trace.end(root)
	}
	if err != nil {
		r.fail("update batch: %v", err)
		return false
	}
	r.applOps.Add(int64(resp.Applied))
	n := r.cityOps.Add(int64(cityOps))
	if mark := r.rssMark.Load(); mark > 0 && n >= mark && r.rssMark.CompareAndSwap(mark, 0) {
		rss, err := procHWM(r.ch.pid())
		if err != nil {
			rss = math.NaN()
		}
		r.mu.Lock()
		r.rssMB = rss
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.updLat = append(r.updLat, sample{at: time.Now(), d: d, ops: cityOps, key: key})
	r.applied = append(r.applied, appliedBatch{clock: clock, ops: ops, rtt: d})
	if resp.Version > r.lastVer {
		r.lastVer = resp.Version
	}
	r.mu.Unlock()
	return true
}

// traceCall opens a generator root span starting at due, when the request
// was due, and the client call span under it.
func (r *run) traceCall(gen, call string, due time.Time) (root, sp *span) {
	root = r.trace.root(gen, r.reqSeq.Add(1))
	root.Start = int64(due.Sub(r.trace.t0))
	return root, r.trace.start(call, root)
}

// runQuery issues one instantaneous catalog query, timed from due, as
// work item key.
func (r *run) runQuery(c *client.Client, tpl city.Template, key int64, due time.Time) bool {
	r.attempted.Add(1)
	var root, sp *span
	if r.trace != nil {
		root, sp = r.traceCall("gen.query", "client.Query", due)
	}
	_, _, err := c.Query(tpl.Src, r.w.spec.Horizon)
	d := time.Since(due)
	if sp != nil {
		r.trace.end(sp)
		r.trace.end(root)
	}
	if err != nil {
		r.fail("query %s: %v", tpl.Name, err)
		return false
	}
	r.queries.Add(1)
	r.mu.Lock()
	r.qryLat = append(r.qryLat, sample{at: time.Now(), d: d, ops: 1, key: key})
	if root != nil {
		r.tracedQ = append(r.tracedQ, tracedQuery{name: tpl.Name, rtt: d})
	}
	r.mu.Unlock()
	return true
}

// advance moves the server clock one tick; the probe is parked first.
func (r *run) advance(c *client.Client) bool {
	if r.sent.isOn() {
		op, ok := r.sent.flip(true, time.Now(), 0, 0)
		if !ok {
			r.fail("sentinel flip was not observed within 10s")
			return false
		}
		if !r.sendBatch(c, []wire.UpdateOp{op}, 0, 0, time.Now(), r.clock) {
			return false
		}
	}
	r.attempted.Add(1)
	r.mutations.Add(1)
	now, err := c.Advance(1)
	if err != nil {
		r.fail("advance: %v", err)
		return false
	}
	r.mu.Lock()
	r.clock = now
	r.mu.Unlock()
	return true
}

// now is the server clock after the last Advance.
func (r *run) now() temporal.Tick {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// closedLoop replays the stream through the updater connections until the
// deadline: per tick, each updater sends its lane's ops in batches, then
// the first updater advances the clock.  The first updater's batches carry
// the sentinel flips; the last updater issues the sampled queries, after
// every queryEvery-th of its batches counted from the start of the replay
// cycle, each the template that position picks, so every cycle samples
// the same queries at the same positions.
func (r *run) closedLoop(deadline time.Time) {
	n := r.sh.updaters
	insts := r.w.cat.Instantaneous()
	batches := 0 // of the last updater since the cycle began
	for time.Now().Before(deadline) {
		if !r.advance(r.conns[0]) {
			return
		}
		r.tk++
		pos := r.w.stream.pos(r.tk)
		if pos == 0 {
			batches = 0
		}
		clock := r.now()
		ready := time.Now() // the clock advance returned: the tick's batches are due
		lanes := make([][]wire.UpdateOp, n)
		for _, op := range r.w.stream.at(r.tk) {
			l := lane(op.ID, n)
			lanes[l] = append(lanes[l], op)
		}
		var wg sync.WaitGroup
		var stop atomic.Bool
		for u := 0; u < n; u++ {
			u, part, c := u, lanes[u], r.conns[u]
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := ready // when this updater's previous call returned
				for bi := 0; len(part) > 0 && !stop.Load() && time.Now().Before(deadline); bi++ {
					k := batchOps
					if k > len(part) {
						k = len(part)
					}
					key := itemKey(pos, u, bi)
					ops := append(make([]wire.UpdateOp, 0, k+1), part[:k]...)
					due := time.Now()
					flipped := false
					if u == 0 {
						var op wire.UpdateOp
						if op, flipped = r.sent.flip(false, due, k, key); flipped {
							ops = append(ops, op)
						}
					}
					r.mu.Lock()
					r.genLag = append(r.genLag, due.Sub(last))
					r.mu.Unlock()
					if !r.sendBatch(c, ops, k, key, due, clock) {
						stop.Store(true)
						return
					}
					if flipped && r.sh.awaitFlip && !r.sent.await(10*time.Second) {
						r.fail("sentinel flip was not observed within 10s")
						stop.Store(true)
						return
					}
					last = time.Now()
					part = part[k:]
					if u != n-1 || r.sh.queryEvery == 0 {
						continue
					}
					if batches++; batches%r.sh.queryEvery == 0 {
						tpl := insts[(batches/r.sh.queryEvery-1)%len(insts)]
						if !r.runQuery(c, tpl, key, time.Now()) {
							stop.Store(true)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if stop.Load() {
			return
		}
	}
}

// trickle is the query workload's open-loop writer at a fixed rate of one
// update per r.sh.trickle: a batch of k ops is due k intervals after the
// previous one and is timed from when it was due.  It advances the clock
// whenever a tick's ops are exhausted.
func (r *run) trickle(deadline time.Time) {
	c := r.conns[0]
	var part []wire.UpdateOp
	var pos int64
	bi := 0 // batch within the tick
	next := time.Now()
	for {
		for len(part) == 0 {
			if !r.advance(c) {
				return
			}
			r.tk++
			pos, bi = r.w.stream.pos(r.tk), 0
			r.pos.Store(pos)
			part = r.w.stream.at(r.tk)
		}
		k := batchOps
		if k > len(part) {
			k = len(part)
		}
		next = next.Add(time.Duration(k) * r.sh.trickle)
		if next.After(deadline) {
			return
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		r.mu.Lock()
		r.genLag = append(r.genLag, time.Since(next))
		r.mu.Unlock()
		key := itemKey(pos, 0, bi)
		ops := append(make([]wire.UpdateOp, 0, k+1), part[:k]...)
		if op, ok := r.sent.flip(false, next, k, key); ok {
			ops = append(ops, op)
		}
		if !r.sendBatch(c, ops, k, key, next, r.now()) {
			return
		}
		part = part[k:]
		bi++
	}
}

// querier cycles the instantaneous catalog, closed loop, until deadline.
// A query's work item is its template at the trickle's cycle position.
func (r *run) querier(deadline time.Time) {
	c := r.conns[1]
	insts := r.w.cat.Instantaneous()
	for i := 0; time.Now().Before(deadline); i++ {
		t := i % len(insts)
		if !r.runQuery(c, insts[t], itemKey(r.pos.Load(), 0, t), time.Now()) {
			return
		}
	}
}

// drive runs the workload's traffic until deadline.
func (r *run) drive(deadline time.Time) {
	if r.sh.trickle == 0 {
		r.closedLoop(deadline)
		return
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.trickle(deadline)
	}()
	go func() {
		defer wg.Done()
		r.querier(deadline)
	}()
	wg.Wait()
}

// reference replays every acknowledged batch into an in-process database
// built from the same seed state: the state the server must hold.
func (r *run) reference() (*most.Database, error) {
	db, err := most.LoadSnapshotJSON(r.w.snap)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	applied := append([]appliedBatch(nil), r.applied...)
	final := r.clock
	r.mu.Unlock()
	sort.SliceStable(applied, func(i, j int) bool { return applied[i].clock < applied[j].clock })
	for _, b := range applied {
		if d := b.clock - db.Now(); d > 0 {
			db.Advance(d)
		}
		for _, op := range b.ops {
			if err := db.SetMotion(most.ObjectID(op.ID), vec(op)); err != nil {
				return nil, err
			}
		}
	}
	if d := final - db.Now(); d > 0 {
		db.Advance(d)
	}
	return db, nil
}

// canonRows renders presented rows as a sorted, comparable string.
func canonRows(rows [][]wire.Value) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.String())
			b.WriteByte(0)
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// refRows evaluates src on the reference database and presents it now.
func refRows(eng *query.Engine, regions map[string]geom.Polygon, src string, horizon temporal.Tick) ([][]wire.Value, error) {
	q, err := ftl.Parse(src)
	if err != nil {
		return nil, err
	}
	rows, err := eng.Instantaneous(q, query.Options{Horizon: horizon, Regions: regions})
	if err != nil {
		return nil, err
	}
	out := make([][]wire.Value, len(rows))
	for i, row := range rows {
		out[i] = make([]wire.Value, len(row))
		for j, v := range row {
			out[i][j] = wire.FromVal(v)
		}
	}
	return out, nil
}

func vec(op wire.UpdateOp) geom.Vector { return geom.Vector{X: op.VX, Y: op.VY} }
