package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/server"
)

// Defaults of `mostserver -wal`: the server child is assembled the way the
// deployed durable server is.
const (
	checkpointEvery = 256
	serverHorizon   = 500
)

// childMain is the server child: it loads the state file, serves it from
// a durable server over loopback, prints "ready <addr> <version>" and
// serves until its standard input closes, so it never outlives the
// generator.  On a directory that already holds a log it recovers instead
// of seeding.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	statePath := fs.String("state", "", "state file written by the generator")
	dir := fs.String("dir", "", "durable data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	sf, regions, err := readState(*statePath)
	if err != nil {
		return fail(err)
	}
	var seedErr error
	srv, _, err := server.NewDurable(*dir, server.Config{
		BaseOptions:     query.Options{Horizon: serverHorizon, Regions: regions},
		Reg:             obs.New(),
		Name:            "perfbench",
		CheckpointEvery: checkpointEvery,
	}, func() *most.Database {
		db, err := most.LoadSnapshotJSON(sf.Snapshot)
		if err != nil {
			seedErr = err
			return most.NewDatabase()
		}
		return db
	})
	if err != nil {
		return fail(err)
	}
	if seedErr != nil {
		srv.Abort()
		return fail(fmt.Errorf("seed: %w", seedErr))
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		srv.Abort()
		return fail(err)
	}
	fmt.Printf("ready %s %d\n", srv.Addr(), srv.DB().Version())
	io.Copy(io.Discard, os.Stdin)
	srv.Abort()
	return 0
}
