package client

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mostdb/most/internal/wire"
)

// rawServer is a hand-scripted server: it answers each connection's Hello
// and first Subscribe, then writes the frames script returns for that
// connection (numbered from 1) and keeps the connection open.
func rawServer(t *testing.T, answer func(conn int) []wire.AnswerRow, script func(conn int) []wire.Notify) (string, func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	conns := 0
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			n := conns
			mu.Unlock()
			t.Cleanup(func() { c.Close() })
			go serveRaw(c, n, answer, script)
		}
	}()
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return conns
	}
}

func serveRaw(c net.Conn, n int, answer func(int) []wire.AnswerRow, script func(int) []wire.Notify) {
	dec := wire.NewDecoder(c, 1<<20)
	send := func(version uint8, op wire.Opcode, id uint64, payload any) bool {
		f, err := wire.EncodeFrame(version, op, id, payload)
		return err == nil && wire.WriteFrame(c, f) == nil
	}
	for {
		f, err := dec.Next()
		if err != nil {
			return
		}
		switch f.Op {
		case wire.OpHello:
			if !send(wire.ProtocolV1, wire.OpResult, f.ID, &wire.HelloResp{Server: "raw", Version: wire.ProtocolV2}) {
				return
			}
		case wire.OpSubscribe:
			subID := uint64(100 + n)
			if !send(wire.ProtocolV2, wire.OpResult, f.ID, &wire.SubscribeResp{SubID: subID, Answer: answer(n)}) {
				return
			}
			for _, nf := range script(n) {
				nf.SubID = subID
				if !send(wire.ProtocolV2, wire.OpNotify, 0, &nf) {
					return
				}
			}
		default:
			send(wire.ProtocolV2, wire.OpResult, f.ID, nil)
		}
	}
}

func ans(ids ...string) []wire.AnswerRow {
	out := make([]wire.AnswerRow, len(ids))
	for i, id := range ids {
		out[i] = wire.AnswerRow{Vals: []wire.Value{{Kind: 1, Obj: id}}, Start: 0, End: 50}
	}
	return out
}

// A delta whose base_seq is not the answer the client holds is a protocol
// fault: the client drops the connection, re-registers, and reconciles to
// the server's full answer in one step — no duplicate notification — and
// the new registration's deltas then apply against that answer.
func TestDeltaBaseMismatchReconnectsAndReconciles(t *testing.T) {
	a0, a1, a2, a3 := ans("car-1", "car-2"), ans("car-1", "car-2", "car-3"), ans("car-2", "car-3"), ans("car-3", "car-4")
	delta := func(base, next []wire.AnswerRow, seq, baseSeq uint64) wire.Notify {
		d, ins := wire.Diff(base, next)
		d.BaseSeq = baseSeq
		return wire.Notify{Seq: seq, Answer: ins, Delta: &d}
	}
	addr, conns := rawServer(t,
		func(conn int) []wire.AnswerRow {
			if conn == 1 {
				return a0
			}
			return a2
		},
		func(conn int) []wire.Notify {
			if conn == 1 {
				// A good delta, then one claiming a base the client never saw.
				return []wire.Notify{delta(a0, a1, 1, 0), delta(a1, a2, 2, 7)}
			}
			return []wire.Notify{delta(a2, a3, 1, 0)}
		})

	c, err := Dial(addr, WithBackoff(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe("RETRIEVE o FROM Vehicles o WHERE TRUE", 50)
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	var seqs []uint64
	deadline := time.After(5 * time.Second)
	for {
		rows, seq, err := sub.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(seqs); n == 0 || seqs[n-1] != seq {
			seqs = append(seqs, seq)
			seen = append(seen, wire.CanonicalAnswers(rows))
		}
		if seq >= 3 {
			break
		}
		select {
		case <-sub.Updates():
		case <-deadline:
			t.Fatalf("stream stuck at seq %d (seqs %v)", seq, seqs)
		}
	}
	// Nothing further may arrive: a duplicate would push seq past 3.
	time.Sleep(50 * time.Millisecond)
	rows, seq, _ := sub.Answer()
	if seq != 3 || wire.CanonicalAnswers(rows) != wire.CanonicalAnswers(a3) {
		t.Fatalf("final seq %d answer %q, want seq 3 answer %q", seq, wire.CanonicalAnswers(rows), wire.CanonicalAnswers(a3))
	}
	if conns() != 2 {
		t.Fatalf("%d connections, want the original and one reconnect", conns())
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			t.Fatalf("duplicate notification at seq %d", seqs[i])
		}
	}
}
