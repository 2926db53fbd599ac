package main

import (
	"time"

	"github.com/mostdb/most/internal/client"
)

// callTimeout is generous: the benchmark measures latency, not the
// client's timeout handling, and a timed-out call is counted as failed.
const callTimeout = 60 * time.Second

// dialConn opens one generator connection to a child; its bytes are
// counted by nc.
func dialConn(ch *child, nc *netCounter, name string) (*client.Client, error) {
	return client.Dial(ch.addr, client.WithDialer(nc.dial), client.WithTimeout(callTimeout),
		client.WithClientID(name))
}
