package main

// The -connect mode: the same REPL grammar served by a remote mostserver
// through the network client instead of an in-process engine.  RETRIEVE,
// .continuous, .tick, .turn, .objects and .save/.load all forward over the
// wire; continuous queries are streamed subscriptions whose answers are
// presented locally (Current(t) is a lookup into the last pushed
// Answer(CQ), not a round trip).

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	mostdb "github.com/mostdb/most"
	"github.com/mostdb/most/internal/wire"
)

type remoteShell struct {
	c       *mostdb.Client
	now     mostdb.Tick
	horizon mostdb.Tick
	cont    map[int]*mostdb.ClientSubscription
	contSrc map[int]string
	nextCQ  int
}

// runRemote is the -connect entry point: a REPL against addr.
func runRemote(addr string, horizon int64) {
	c, err := mostdb.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mostql: connect:", err)
		os.Exit(1)
	}
	defer c.Close()
	sh := &remoteShell{
		c:       c,
		horizon: mostdb.Tick(horizon),
		cont:    map[int]*mostdb.ClientSubscription{},
		contSrc: map[int]string{},
	}
	// A zero advance fetches the server clock without moving it.
	now, err := c.Advance(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mostql: connect:", err)
		os.Exit(1)
	}
	sh.now = now
	fmt.Printf("mostql: connected to %s; server clock at %d; horizon %d\n",
		addr, now, horizon)
	fmt.Println(`type ".help" for commands`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("t=%d> ", sh.now)
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if sh.command(line) {
				return
			}
			continue
		}
		sh.query(line)
	}
}

func (sh *remoteShell) query(src string) {
	now, rows, err := sh.c.Query(src, sh.horizon)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sh.now = now
	fmt.Printf("%d instantiation(s) satisfied at t=%d:\n", len(rows), now)
	for i, vals := range rows {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(rows)-20)
			break
		}
		fmt.Println(" ", joinValues(vals))
	}
}

func joinValues(vals []wire.Value) string {
	parts := make([]string, len(vals))
	for j, v := range vals {
		parts[j] = v.String()
	}
	return strings.Join(parts, ", ")
}

// command handles a dot-command; it returns true to exit.
func (sh *remoteShell) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Println(`commands (remote):
  RETRIEVE ... WHERE ...    instantaneous FTL query on the server
  .continuous <query>       subscribe to a streamed continuous query
  .tick [n]                 advance the server clock by n (default 1)
  .turn <id> <vx> <vy>      change an object's motion vector on the server
  .objects [class]          list server objects and current positions
  .regions                  region names are defined by the server (P, Q, downtown)
  .save <file>              download a server snapshot to a local JSON file
  .load <file>              replace the server database from a local snapshot
  .quit                     exit`)
	case ".tick":
		n := int64(1)
		if len(fields) > 1 {
			if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				n = v
			}
		}
		now, err := sh.c.Advance(mostdb.Tick(n))
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.now = now
		for id, sub := range sh.cont {
			select {
			case <-sub.Done():
				fmt.Printf("[cq%d] closed: %v\n", id, sub.Err())
				delete(sh.cont, id)
				delete(sh.contSrc, id)
				continue
			default:
			}
			rows, err := sub.Current(now)
			if err != nil {
				continue
			}
			fmt.Printf("[cq%d] %d row(s) at t=%d\n", id, len(rows), now)
		}
	case ".turn":
		if len(fields) != 4 {
			fmt.Println("usage: .turn <id> <vx> <vy>")
			return false
		}
		vx, err1 := strconv.ParseFloat(fields[2], 64)
		vy, err2 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil {
			fmt.Println("bad vector")
			return false
		}
		if err := sh.c.SetMotion(fields[1], vx, vy); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("%s now heads (%g, %g)\n", fields[1], vx, vy)
	case ".continuous":
		src := strings.TrimSpace(strings.TrimPrefix(line, ".continuous"))
		sub, err := sh.c.Subscribe(src, sh.horizon)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.nextCQ++
		sh.cont[sh.nextCQ] = sub
		sh.contSrc[sh.nextCQ] = src
		fmt.Printf("registered cq%d (streamed); it reports on every .tick\n", sh.nextCQ)
	case ".save":
		if len(fields) != 2 {
			fmt.Println("usage: .save <file>")
			return false
		}
		data, err := sh.c.SnapshotSave()
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		if err := os.WriteFile(fields[1], data, 0o644); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("saved server snapshot to %s\n", fields[1])
	case ".load":
		if len(fields) != 2 {
			fmt.Println("usage: .load <file>")
			return false
		}
		data, err := os.ReadFile(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		resp, err := sh.c.SnapshotLoad(data)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		sh.now = resp.Now
		sh.cont = map[int]*mostdb.ClientSubscription{}
		sh.contSrc = map[int]string{}
		fmt.Printf("server loaded %d objects; clock at %d; subscriptions cleared\n", resp.Objects, resp.Now)
	case ".objects":
		class := ""
		if len(fields) > 1 {
			class = fields[1]
		}
		resp, err := sh.c.Objects(class)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		for i, o := range resp.Objects {
			if i >= 15 {
				fmt.Printf("  ... and %d more\n", len(resp.Objects)-15)
				break
			}
			if !o.HasPos {
				fmt.Printf("  %s (%s)\n", o.ID, o.Class)
				continue
			}
			fmt.Printf("  %-12s (%s) at (%.1f, %.1f)\n", o.ID, o.Class, o.X, o.Y)
		}
	case ".regions":
		fmt.Println("  regions live on the server: P, Q, downtown (see mostserver)")
	default:
		fmt.Println("unknown command; try .help")
	}
	return false
}
