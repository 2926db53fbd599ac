package main

import (
	"math"
	"regexp"
	"strconv"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// The engine presents an object that reaches a region's edge exactly at a
// whole tick differently on its two evaluation paths: a maintained answer
// solves the crossing in closed form (a car reaching y = 500 at tick 51 is
// inside D = [0,500]x[500,1100] through tick 51), while a fresh
// evaluation samples the position at the tick (499.99999999999994:
// outside).  City trips meet block edges at whole ticks, so this happens
// in many alerts runs: in at most 1.3% of the rows checked in 60 runs at
// full size, and about 1% in the toy city of the tests, each car at an
// edge counting once per subscriber of each template it differs in.  The
// subscription check therefore accepts a disagreeing row only when it has
// the defect's signature (edgeRow), and it counts such rows and fails the
// run when they are more than maxEdgeShare of the rows it checked.  Any
// other disagreement fails it.
const (
	boundaryEps  = 1e-6
	maxEdgeShare = 0.05
)

// An atom is one spatial condition of a template: INSIDE a named region or
// DIST within a bound, optionally under EVENTUALLY WITHIN w.  The window w
// is the ticks after now that decide the atom (0 for a plain atom).
var (
	insideRe = regexp.MustCompile(`(?:EVENTUALLY WITHIN (\d+) )?INSIDE\(\w+, (\w+)\)`)
	distRe   = regexp.MustCompile(`(?:EVENTUALLY WITHIN (\d+) )?DIST\([^)]*\) <= ([0-9.eE+-]+)`)
	alwaysRe = regexp.MustCompile(`ALWAYS`)
)

type atom struct {
	window temporal.Tick
	region geom.Polygon // an INSIDE atom
	dist   float64      // a DIST atom's bound, when region is empty
}

func parseWindow(s string) temporal.Tick {
	w, _ := strconv.Atoi(s)
	return temporal.Tick(w)
}

// atoms returns the spatial atoms of src.  A template with ALWAYS has
// none: its defect would show the other way round, and no subscribed
// template uses it.
func atoms(src string, regions map[string]geom.Polygon) []atom {
	if alwaysRe.MatchString(src) {
		return nil
	}
	var out []atom
	for _, m := range insideRe.FindAllStringSubmatch(src, -1) {
		if pg, ok := regions[m[2]]; ok {
			out = append(out, atom{window: parseWindow(m[1]), region: pg})
		}
	}
	for _, m := range distRe.FindAllStringSubmatch(src, -1) {
		if d, err := strconv.ParseFloat(m[2], 64); err == nil {
			out = append(out, atom{window: parseWindow(m[1]), dist: d})
		}
	}
	return out
}

// edgeRow reports whether a row that the maintained answer holds and a
// fresh evaluation lacks has the defect's signature: for some atom of src,
// the row's first object is within boundaryEps of the atom's boundary at a
// tick that decides the atom (now, or now..now+w under EVENTUALLY WITHIN
// w), and is never further inside than that at any of those ticks, so the
// edge tick alone put the row in the maintained answer.
func edgeRow(db *most.Database, regions map[string]geom.Polygon, src string, row []wire.Value, now temporal.Tick) bool {
	if len(row) == 0 || row[0].Obj == "" {
		return false
	}
	o, ok := db.Get(most.ObjectID(row[0].Obj))
	if !ok {
		return false
	}
	for _, a := range atoms(src, regions) {
		if a.region.Len() > 0 {
			if regionEdge(o, a.region, now, a.window) {
				return true
			}
			continue
		}
		for _, peer := range db.Objects(o.Class().Name()) {
			if peer.ID() != o.ID() && distEdge(o, peer, a.dist, now, a.window) {
				return true
			}
		}
	}
	return false
}

// regionEdge: o touches pg's edge at some tick of [now, now+w] and is
// never strictly inside it by more than boundaryEps.
func regionEdge(o *most.Object, pg geom.Polygon, now, w temporal.Tick) bool {
	touched := false
	for t := now; t <= now+w; t++ {
		p, err := o.PositionAt(t)
		if err != nil {
			return false
		}
		d := edgeDist(p, pg)
		if d >= boundaryEps && pg.Contains(p) {
			return false
		}
		touched = touched || d < boundaryEps
	}
	return touched
}

// distEdge: the distance of o and peer equals bound, to boundaryEps, at
// some tick of [now, now+w], and is never below bound by more than that.
func distEdge(o, peer *most.Object, bound float64, now, w temporal.Tick) bool {
	touched := false
	for t := now; t <= now+w; t++ {
		p, err1 := o.PositionAt(t)
		q, err2 := peer.PositionAt(t)
		if err1 != nil || err2 != nil {
			return false
		}
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if d <= bound-boundaryEps {
			return false
		}
		touched = touched || math.Abs(d-bound) < boundaryEps
	}
	return touched
}

// edgeDist is the distance from p to the nearest edge of pg.
func edgeDist(p geom.Point, pg geom.Polygon) float64 {
	vs := pg.Vertices()
	best := math.Inf(1)
	for i := range vs {
		a, b := vs[i], vs[(i+1)%len(vs)]
		dx, dy := b.X-a.X, b.Y-a.Y
		t := 0.0
		if l := dx*dx + dy*dy; l > 0 {
			t = math.Max(0, math.Min(1, ((p.X-a.X)*dx+(p.Y-a.Y)*dy)/l))
		}
		best = math.Min(best, math.Hypot(p.X-a.X-t*dx, p.Y-a.Y-t*dy))
	}
	return best
}
