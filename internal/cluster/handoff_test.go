package cluster

// Handoff edge cases pinned on a real durable Node served over TCP and
// driven with client.Handoff — the code that serves cluster traffic, not
// a model of it.  Two idempotence layers stand between a retried or
// reordered transfer and a double apply, and each test forces one:
//
//   - a retransmit under the same request id (a lost acknowledgement) is
//     answered from the receiver's receipt, below the version fence;
//   - a re-offer under a fresh request id (the sender's next barrier or
//     in-doubt retry) is stopped by the version fence alone, which must
//     still acknowledge so the sender releases its copy.

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/faults"
	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/server"
	"github.com/mostdb/most/internal/wire"
	"github.com/mostdb/most/internal/workload"
)

const receiverName = "receiver"

// handoffReceiver serves one durable node that owns the whole plane and
// starts with no cars.
func handoffReceiver(t *testing.T) (*Node, *obs.Registry, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	zm, err := NewGridMap(geom.Rect{Max: geom.Point{X: 1000, Y: 1000}}, 1, 1, []string{addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	node := NewNode("t", nil)
	srv, _, err := server.NewDurable(t.TempDir(), server.Config{Name: receiverName, Cluster: node, Reg: reg},
		func() *most.Database {
			db, err := workload.Fleet(workload.FleetSpec{})
			if err != nil {
				panic(err)
			}
			return db
		})
	if err != nil {
		t.Fatal(err)
	}
	node.Bind(srv, addr)
	node.Install(zm)
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Abort()
		node.closePeers()
	})
	return node, reg, addr
}

// sender dials the receiver as a cluster peer.
func sender(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	opts = append([]client.Option{
		client.WithPeer(), client.WithClientID("peer:sender"),
		client.WithTimeout(5 * time.Second), client.WithBackoff(time.Millisecond, 20*time.Millisecond),
	}, opts...)
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// offer builds a handoff of a parked car whose state is its x coordinate.
func offer(t *testing.T, id string, version uint64, x float64) *wire.HandoffReq {
	t.Helper()
	o, err := most.NewObject(most.ObjectID(id), workload.VehicleClass)
	if err == nil {
		o, err = o.WithStatic("PRICE", most.Float(0))
	}
	if err == nil {
		o, err = o.WithPosition(motion.MovingFrom(geom.Point{X: x, Y: 500}, geom.Vector{}, 0))
	}
	if err != nil {
		t.Fatal(err)
	}
	doc, err := most.EncodeObjectJSON(o)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.HandoffReq{ID: id, Version: version, From: "sender", Object: doc}
}

// mustHandoff sends one offer and demands an acknowledgement.
func mustHandoff(t *testing.T, c *client.Client, req *wire.HandoffReq) wire.HandoffResp {
	t.Helper()
	resp, err := c.Handoff(req)
	if err != nil {
		t.Fatalf("handoff %s v%d: %v", req.ID, req.Version, err)
	}
	return resp
}

// stateOf returns the x coordinate the receiver holds for id.
func stateOf(t *testing.T, n *Node, id string) float64 {
	t.Helper()
	o, ok := n.srv.DB().Get(most.ObjectID(id))
	if !ok {
		t.Fatalf("receiver does not hold %s", id)
	}
	p, err := o.PositionAt(n.srv.DB().Now())
	if err != nil {
		t.Fatal(err)
	}
	return p.X
}

// helloLen is the byte size of the receiver's Hello response frame.
func helloLen(t *testing.T) int64 {
	t.Helper()
	f, err := wire.EncodeFrame(wire.ProtocolV1, wire.OpResult, 1, &wire.HelloResp{Server: receiverName, Version: wire.ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	return int64(wire.HeaderSize + len(f.Payload))
}

// The acknowledgement of an applied transfer is lost — the connection dies
// as the first byte of the response arrives — so the sender retransmits
// under the same request id on a fresh connection.  The receiver replays
// its receipt (Accepted, as originally answered) instead of re-applying,
// and the fence never sees the retransmit.
func TestHandoffLostAckReplaysReceipt(t *testing.T) {
	node, reg, addr := handoffReceiver(t)
	d := &faults.FaultyDialer{Scripts: []faults.ConnScript{{CloseAfterReads: helloLen(t) + 1}, {}}}
	c := sender(t, addr, client.WithDialer(d.Dial))

	if resp := mustHandoff(t, c, offer(t, "car-1", 1, 700)); !resp.Accepted {
		t.Fatal("replayed acknowledgement of a first transfer says not accepted")
	}
	if d.DialCount() < 2 {
		t.Fatalf("dials = %d: the acknowledgement was not lost", d.DialCount())
	}
	if hits := reg.Snapshot().Counters["server.dedup_hits"]; hits != 1 {
		t.Fatalf("server.dedup_hits = %d, want 1 receipt replay", hits)
	}
	if _, in, dups, _ := node.Stats(); in != 1 || dups != 0 {
		t.Fatalf("handoffs in %d, duplicates %d: want one apply and no fence hit", in, dups)
	}
	if x := stateOf(t, node, "car-1"); x != 700 {
		t.Fatalf("receiver holds car-1 at x=%v, want 700", x)
	}
}

// The sender re-offers an already applied version under a fresh request
// id, as its next barrier would after abandoning an unacknowledged
// transfer.  The receipt cannot match a new id; the version fence must
// acknowledge (Accepted=false, so the sender still releases) without
// applying twice.
func TestHandoffReofferFreshRequestIDFenced(t *testing.T) {
	node, _, addr := handoffReceiver(t)
	c := sender(t, addr)

	if resp := mustHandoff(t, c, offer(t, "car-2", 3, 300)); !resp.Accepted {
		t.Fatal("first transfer not accepted")
	}
	if resp := mustHandoff(t, c, offer(t, "car-2", 3, 300)); resp.Accepted {
		t.Fatal("re-offer of an applied version was accepted again")
	}
	if _, in, dups, _ := node.Stats(); in != 1 || dups != 1 {
		t.Fatalf("handoffs in %d, duplicates %d: want one apply and one fenced re-offer", in, dups)
	}
	if x := stateOf(t, node, "car-2"); x != 300 {
		t.Fatalf("receiver holds car-2 at x=%v, want 300", x)
	}
}

// Version 1 is applied, version 2 supersedes it, then version 1 is offered
// again (a recovered sender re-offering from its quarantine).  The stale
// offer is acknowledged — the only way the confused sender releases — but
// must not regress the object.
func TestHandoffStaleOfferAfterNewerVersion(t *testing.T) {
	node, _, addr := handoffReceiver(t)
	c := sender(t, addr)

	mustHandoff(t, c, offer(t, "car-3", 1, 100))
	mustHandoff(t, c, offer(t, "car-3", 2, 200))
	if resp := mustHandoff(t, c, offer(t, "car-3", 1, 100)); resp.Accepted {
		t.Fatal("stale version 1 accepted after version 2")
	}
	if _, in, dups, _ := node.Stats(); in != 2 || dups != 1 {
		t.Fatalf("handoffs in %d, duplicates %d: want v1 and v2 applied, the stale v1 fenced", in, dups)
	}
	if x := stateOf(t, node, "car-3"); x != 200 {
		t.Fatalf("receiver regressed car-3 to x=%v, want version 2's 200", x)
	}
}

// Many versioned transfers per object, offered in a seeded shuffled order
// with seeded duplicates, over connections that die at seeded points
// mid-stream so acknowledgements are lost and retransmitted.  Whatever
// order offers land in, every one is acknowledged and each object settles
// at its highest offered version.
func TestHandoffSeededSoak(t *testing.T) {
	const objects, versions = 5, 4
	state := func(o, v int) float64 { return float64(100*(o+1) + v) }
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		node, _, addr := handoffReceiver(t)
		// Each of the first connections dies within its first few
		// responses (a HandoffResp frame is 25 bytes); the last script
		// leaves later connections alone.
		var scripts []faults.ConnScript
		for i := 0; i < 6; i++ {
			scripts = append(scripts, faults.ConnScript{CloseAfterReads: helloLen(t) + 1 + rng.Int63n(25*4)})
		}
		d := &faults.FaultyDialer{Scripts: append(scripts, faults.ConnScript{})}
		c := sender(t, addr, client.WithDialer(d.Dial), client.WithRetries(10))

		var script []*wire.HandoffReq
		for o := 0; o < objects; o++ {
			for v := 1; v <= versions; v++ {
				req := offer(t, "car-"+string(rune('a'+o)), uint64(v), state(o, v))
				script = append(script, req)
				if rng.Intn(3) == 0 {
					script = append(script, req) // duplicate delivery
				}
			}
		}
		rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
		for _, req := range script {
			mustHandoff(t, c, req)
		}

		if d.DialCount() < 2 {
			t.Fatalf("seed %d: no connection died; the soak lost no acknowledgement", seed)
		}
		for o := 0; o < objects; o++ {
			id := "car-" + string(rune('a'+o))
			if x := stateOf(t, node, id); x != state(o, versions) {
				t.Fatalf("seed %d: %s settled at x=%v, want version %d's %v", seed, id, x, versions, state(o, versions))
			}
		}
		if _, in, dups, _ := node.Stats(); in+dups != uint64(len(script)) {
			t.Fatalf("seed %d: %d applies + %d fenced = %d verdicts for %d offers", seed, in, dups, in+dups, len(script))
		}
	}
}
