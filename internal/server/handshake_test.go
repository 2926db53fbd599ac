package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/mostdb/most/internal/client"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/wire"
)

// dialRaw opens a plain TCP connection to the server with a test-sized
// deadline and a decoder accepting both frame versions.
func dialRaw(t *testing.T, addr string) (net.Conn, *wire.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, wire.NewDecoder(conn, 1<<20)
}

// sendFrame encodes and writes one frame.
func sendFrame(t *testing.T, conn net.Conn, version uint8, op wire.Opcode, id uint64, payload any) {
	t.Helper()
	f, err := wire.EncodeFrame(version, op, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
}

// awaitClose reads until the server closes the connection.
func awaitClose(t *testing.T, dec *wire.Decoder) {
	t.Helper()
	for {
		if _, err := dec.Next(); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}
			return
		}
	}
}

// A client that speaks only version 1 — one that omits max_version, as
// every pre-v2 client did, or offers 1 — gets a typed refusal it can read:
// a version-1 ErrorResp with code unsupported_version.  Then the server
// closes the connection, and a v2 client on the same server is unaffected.
func TestHelloRefusesV1OnlyClient(t *testing.T) {
	_, addr := startTestServer(t, 2, Config{})
	for _, hello := range [][]byte{
		[]byte(`{"client_id":"legacy"}`),
		[]byte(`{"client_id":"legacy","max_version":1}`),
	} {
		conn, dec := dialRaw(t, addr)
		if err := wire.WriteFrame(conn, wire.Frame{Op: wire.OpHello, ID: 1, Version: wire.ProtocolV1, Payload: hello}); err != nil {
			t.Fatal(err)
		}
		resp, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != wire.OpError || resp.Version != wire.ProtocolV1 {
			t.Fatalf("hello %s answered with %s at version %d, want a version-1 error", hello, resp.Op, resp.Version)
		}
		var e wire.ErrorResp
		if err := wire.Unmarshal(resp, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != wire.CodeUnsupportedVersion {
			t.Fatalf("refusal code %q (%s), want %q", e.Code, e.Msg, wire.CodeUnsupportedVersion)
		}
		awaitClose(t, dec)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// A frame of the wrong version is a protocol violation that disconnects:
// a version-1 frame after the handshake, or anything but a version-1
// Hello before it.  The server counts each, pushes a best-effort error
// frame, and closes the connection.
func TestMidSessionProtocolViolationDisconnects(t *testing.T) {
	reg := obs.New()
	_, addr := startTestServer(t, 2, Config{Reg: reg})

	conn, dec := dialRaw(t, addr)
	sendFrame(t, conn, wire.ProtocolV1, wire.OpHello, 1, &wire.HelloReq{MaxVersion: wire.ProtocolV2})
	resp, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.HelloResp
	if err := wire.Unmarshal(resp, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version != wire.ProtocolV2 {
		t.Fatalf("session version %d, want %d", hr.Version, wire.ProtocolV2)
	}
	// Violate the handshake: a v1 frame on the now-v2 session.
	sendFrame(t, conn, wire.ProtocolV1, wire.OpPing, 9, nil)
	awaitClose(t, dec)

	// A v2 request before any Hello is a violation too.
	conn2, dec2 := dialRaw(t, addr)
	sendFrame(t, conn2, wire.ProtocolV2, wire.OpPing, 1, nil)
	awaitClose(t, dec2)

	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["server.protocol_violations"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("protocol violations counted %d, want 2", reg.Snapshot().Counters["server.protocol_violations"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A retry on a new connection under the same client identity and request
// ID replays the cached response — the very bytes the original connection
// received — without applying the update again.
func TestDedupReplayAcrossReconnect(t *testing.T) {
	_, addr := startTestServer(t, 4, Config{})
	update := func(id uint64) wire.Frame {
		t.Helper()
		conn, dec := dialRaw(t, addr)
		defer conn.Close()
		sendFrame(t, conn, wire.ProtocolV1, wire.OpHello, 1, &wire.HelloReq{ClientID: "replay-test", MaxVersion: wire.ProtocolV2})
		if _, err := dec.Next(); err != nil {
			t.Fatal(err)
		}
		sendFrame(t, conn, wire.ProtocolV2, wire.OpUpdateBatch, id, &wire.UpdateBatchReq{
			Ops: []wire.UpdateOp{{Op: wire.OpSetMotion, ID: vid(0), VX: 2, VY: 2}},
		})
		resp, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != wire.OpResult || resp.ID != id || resp.Version != wire.ProtocolV2 {
			t.Fatalf("got %s/%d at version %d, want a v2 result/%d", resp.Op, resp.ID, resp.Version, id)
		}
		return resp
	}
	decode := func(f wire.Frame) wire.UpdateBatchResp {
		var ub wire.UpdateBatchResp
		if err := wire.Unmarshal(f, &ub); err != nil {
			t.Fatal(err)
		}
		return ub
	}

	const reqID = 42
	orig := update(reqID)
	replay := update(reqID)
	if !bytes.Equal(replay.Payload, orig.Payload) {
		t.Fatalf("replayed payload %x differs from original %x", replay.Payload, orig.Payload)
	}
	// The replay must not have applied again: the database version a fresh
	// request observes is exactly one past the original's.
	if fresh := decode(update(reqID + 1)); fresh.Version != decode(orig).Version+1 {
		t.Fatalf("db version %d after replay+1 update, want %d (replay must not re-apply)",
			fresh.Version, decode(orig).Version+1)
	}
}
