package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"

	"github.com/mostdb/most/internal/city"
	"github.com/mostdb/most/internal/ftl"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

// citySpec is the city every workload replays, chosen so that runs on
// different seeds measure the same mix.  Two districts side by side give
// the catalog both of its region families: range_district and
// trajectory_window over districts that cars cross between, and the
// corridor template, which needs two districts.  Two POIs per district
// put all four in the catalog, which instantiates at most four, so no
// seed chooses which POIs the poi_approach templates watch.  A narrow
// speed range keeps the longest trip, and with it the ticks per replay
// cycle and the updates per tick, nearly the same for every seed.  600
// cars make a replay cycle of about 4,800 updates, so that even alerts,
// the slowest workload per update, replays several whole cycles in a
// 30-second window: a run that covered part of a cycle would measure a
// part of the day that differs from seed to seed.
func citySpec(seed int64, toy bool) city.Spec {
	s := city.Spec{
		Seed: seed, Cars: 600, Buses: 8,
		GridW: 12, GridH: 12, DistrictsX: 2, DistrictsY: 1, POIsPerDistrict: 2,
		Ticks: 18, Horizon: 40, TurnProb: 0.12, ReturnFrac: 0.2,
		SpeedMin: 30, SpeedMax: 45,
	}
	if toy {
		s.Cars, s.Buses, s.Ticks = 120, 4, 8
	}
	return s
}

// districtKinds is the district layout every seed gets: D1 is downtown by
// construction (the middle district), and D0 is residential, so most cars
// live in D0 and commute into D1.  city.Generate draws D0's kind from the
// seed; a kind drawn per seed would move where traffic concentrates, and
// with it the per-update cost, by a fifth between seeds.
var districtKinds = []string{"residential", "downtown"}

// fixedLayout reports whether c has the layout every seed gets: the
// districtKinds, and no POI whose nearest intersection, where the cars
// bound for it park, lies on the road the two districts share.  A car
// parked there is on both districts' edge, in both range_district answers
// and in the corridor answer for as long as it stays.  Over ten seeds
// such POIs moved the subscriptions' answer rows per tick by a tenth
// (quartile distance over median 0.11, against 0.04 without them).
func fixedLayout(c *city.City) bool {
	if len(c.Districts) != len(districtKinds) {
		return false
	}
	for i, d := range c.Districts {
		if d.Kind != districtKinds[i] {
			return false
		}
	}
	shared := c.Districts[1].Bounds.Min.X
	for _, p := range c.POIs {
		if math.Round(p.Loc.X/c.Spec.Block)*c.Spec.Block == shared {
			return false
		}
	}
	return true
}

// buildWorld builds the world of the workload seed, its city, catalog and
// replay stream, from the first of the city seeds seed, seed+kindStride,
// seed+2*kindStride, ... that has the fixed layout and, at full size,
// typical work (typicalWork).  About one seed in
// eight has the layout and one in three of those typical work, so this
// ends within a few seconds, and it is deterministic in the workload seed.
// city.Generate seeds math/rand, which reduces a seed modulo 2^31-1; the
// stride keeps the candidates of workload seeds below 2^20 apart from each
// other's.
func buildWorld(seed int64, toy bool) (*world, error) {
	const kindStride = 1 << 20
	for i := int64(0); i < 1024; i++ {
		c, err := city.Generate(citySpec(seed+i*kindStride, toy))
		if err != nil {
			return nil, err
		}
		if !fixedLayout(c) {
			continue
		}
		w, err := newWorld(c)
		if err != nil {
			return nil, err
		}
		if ok, err := w.typicalWork(); err != nil || ok || toy {
			return w, err
		}
	}
	return nil, fmt.Errorf("no city seed derived from %d has the fixed layout and typical work", seed)
}

// Bands of typical work, measured over the cities of workload seeds 1-16.
// A replay cycle's updates per tick decide the batch sizes, and with them
// how per-batch and per-update costs mix in every round trip; they ranged
// from 19.8 to 26.8, as the longest trip set the cycle's length.  The
// catalog's answer rows decide query and notification costs; one city in
// sixteen had two POIs whose rings took in 30% more rows than the others'.
const (
	minOpsPerTick, maxOpsPerTick   = 20.0, 22.0
	minSampledRows, maxSampledRows = 23500, 25500
)

// typicalWork reports whether the world's work falls in the bands: its
// updates per cycle tick, and the rows that every instantaneous template
// answers at twelve ticks spread over the replay cycle, summed.
func (w *world) typicalWork() (bool, error) {
	period := len(w.stream.ticks)
	perTick := float64(w.stream.events) / float64(period)
	if perTick < minOpsPerTick || perTick > maxOpsPerTick {
		return false, nil
	}
	db, err := most.LoadSnapshotJSON(w.snap)
	if err != nil {
		return false, err
	}
	eng := query.NewEngine(db)
	var qs []*ftl.Query
	for _, tpl := range w.cat.Instantaneous() {
		q, err := ftl.Parse(tpl.Src)
		if err != nil {
			return false, err
		}
		qs = append(qs, q)
	}
	opts := query.Options{Horizon: w.spec.Horizon, Regions: w.regions}
	rows := 0
	for tk := 1; tk <= period; tk++ {
		db.Advance(1)
		for _, op := range w.stream.at(temporal.Tick(tk)) {
			if err := db.SetMotion(most.ObjectID(op.ID), vec(op)); err != nil {
				return false, err
			}
		}
		if tk%(period/12) != 0 {
			continue
		}
		for _, q := range qs {
			rs, err := eng.Instantaneous(q, opts)
			if err != nil {
				return false, err
			}
			rows += len(rs)
		}
	}
	return rows >= minSampledRows && rows <= maxSampledRows, nil
}

// The sentinel rig measures notification latency.  The probe lives in its
// own class, so car updates never maintain the sentinel's plan and probe
// flips never maintain the car subscriptions.  A flip toggles the probe
// between parked (never reaches the region: empty answer) and heading for
// the region (reaches it in 3 ticks, inside the 5-tick window: one
// row), so every flip changes the sentinel's answer.  The probe is always
// parked when the clock advances, so it never moves and the rig is the
// same at every tick.
const (
	sentinelRegion = "SENTINEL"
	sentinelProbe  = "probe-000"
	sentinelSpeed  = 100.0
)

var probeClass = most.MustClass("Probes", true)

// sentinelSrc is the sentinel subscription's query.
const sentinelSrc = "RETRIEVE p FROM Probes p WHERE EVENTUALLY WITHIN 5 INSIDE(p, SENTINEL)"

// flipOp sets the probe heading for the sentinel region (on) or parked.
func flipOp(on bool) wire.UpdateOp {
	op := wire.UpdateOp{Op: wire.OpSetMotion, ID: sentinelProbe}
	if on {
		op.VX = -sentinelSpeed
	}
	return op
}

// world is everything the generator derives from the seed.
type world struct {
	spec    city.Spec
	city    *city.City
	cat     *city.Catalog
	regions map[string]geom.Polygon
	snap    []byte // tick-0 database snapshot, the server's seed state
	stream  *opStream
}

// newWorld derives the catalog, the seed state and the replay stream of c.
func newWorld(c *city.City) (*world, error) {
	w := &world{spec: c.Spec, city: c, cat: c.Catalog()}
	db, err := w.seedDB()
	if err != nil {
		return nil, err
	}
	if w.snap, err = db.SnapshotJSON(); err != nil {
		return nil, err
	}
	w.regions = make(map[string]geom.Polygon, len(w.cat.Regions)+1)
	for name, pg := range w.cat.Regions {
		w.regions[name] = pg
	}
	// The heading probe is at x = 200, 100, 0 after 1, 2, 3 ticks: the
	// region holds the third position strictly inside (positions are
	// evaluated at whole ticks).
	w.regions[sentinelRegion] = geom.RectPolygon(-80, 0, 20, 100)
	w.stream = newOpStream(c.Events)
	return w, nil
}

// seedDB materializes the city at tick 0 plus the parked sentinel probe.
func (w *world) seedDB() (*most.Database, error) {
	db, err := w.city.Database()
	if err != nil {
		return nil, err
	}
	if err := db.DefineClass(probeClass); err != nil {
		return nil, err
	}
	o, err := most.NewObject(sentinelProbe, probeClass)
	if err != nil {
		return nil, err
	}
	if o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: 300, Y: 50}, geom.Vector{}, 0)); err != nil {
		return nil, err
	}
	return db, db.Insert(o)
}

// bounds is the plane the city's roads cover.
func (w *world) bounds() geom.Rect {
	return geom.Rect{Max: geom.Point{
		X: float64(w.spec.GridW-1) * w.spec.Block,
		Y: float64(w.spec.GridH-1) * w.spec.Block,
	}}
}

// stateFile is what the server child receives: the generated state and
// the region set, nothing else.
type stateFile struct {
	Snapshot json.RawMessage         `json:"snapshot"`
	Regions  map[string][]geom.Point `json:"regions"`
}

func (w *world) writeState(path string) error {
	sf := stateFile{Snapshot: w.snap, Regions: map[string][]geom.Point{}}
	for name, pg := range w.regions {
		sf.Regions[name] = pg.Vertices()
	}
	data, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readState(path string) (*stateFile, map[string]geom.Polygon, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, nil, fmt.Errorf("state file: %w", err)
	}
	regions := make(map[string]geom.Polygon, len(sf.Regions))
	for name, vs := range sf.Regions {
		pg, err := geom.NewPolygon(vs...)
		if err != nil {
			return nil, nil, fmt.Errorf("region %s: %w", name, err)
		}
		regions[name] = pg
	}
	return &sf, regions, nil
}

// opStream is the city's motion schedule made endless.  One cycle plays
// the schedule forward and then mirrored in time with negated vectors, so
// every car retraces its trips and is back, parked, at its origin when the
// cycle ends.  The city therefore looks the same in every cycle however
// long a run replays it, and a fast workload measures the same mix of
// trips as a slow one.
type opStream struct {
	ticks  [][]wire.UpdateOp // ops of cycle tick 1..len(ticks); index 0 = tick 1
	events int
}

func newOpStream(events []workload.UpdateEvent) *opStream {
	end := temporal.Tick(1)
	for _, e := range events {
		if e.Tick >= end {
			end = e.Tick + 1
		}
	}
	period := 2 * int(end)
	s := &opStream{ticks: make([][]wire.UpdateOp, period), events: 0}
	add := func(t int, id most.ObjectID, v geom.Vector) {
		s.ticks[t-1] = append(s.ticks[t-1], wire.UpdateOp{Op: wire.OpSetMotion, ID: string(id), VX: v.X, VY: v.Y})
		s.events++
	}
	last := map[most.ObjectID]geom.Vector{}
	prev := make([]geom.Vector, len(events))
	for i, e := range events {
		prev[i] = last[e.Object]
		add(int(e.Tick), e.Object, e.Vector)
		last[e.Object] = e.Vector
	}
	// Mirror: the switch from prev to v at tick t becomes, at tick
	// 2*end-t, the switch from -v back to -prev.  Walking the events
	// backwards keeps same-tick switches of one object in mirrored order.
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		add(2*int(end)-int(e.Tick), e.Object, geom.Vector{X: -prev[i].X, Y: -prev[i].Y})
	}
	// Anything still moving when the schedule ends turns round at the
	// mirror tick.
	ids := make([]string, 0, len(last))
	for id, v := range last {
		if v.X != 0 || v.Y != 0 {
			ids = append(ids, string(id))
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := last[most.ObjectID(id)]
		add(int(end), most.ObjectID(id), geom.Vector{X: -v.X, Y: -v.Y})
	}
	for _, ops := range s.ticks {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	}
	return s
}

// at returns the ops due at replay tick t >= 1.
func (s *opStream) at(t temporal.Tick) []wire.UpdateOp {
	return s.ticks[(int(t)-1)%len(s.ticks)]
}

// pos returns replay tick t's position in the cycle, from 0.
func (s *opStream) pos(t temporal.Tick) int64 {
	return int64((int(t) - 1) % len(s.ticks))
}

// lane says which of n updaters owns an object, so concurrent updaters
// never touch the same object and the final state does not depend on how
// their commits interleave.
func lane(id string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}
