package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/mostdb/most/internal/most"
	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/query"
	"github.com/mostdb/most/internal/temporal"
	"github.com/mostdb/most/internal/wire"
)

// This file makes the server crash-safe: NewDurable threads the most.WAL
// and checkpoint machinery into the commit path, so every mutating request
// is on disk (page cache) before its acknowledgement leaves the server, and
// a restart rebuilds the database — and the idempotence cache — from the
// data directory.
//
// # Exactly-once across restarts
//
// The in-memory dedup cache alone cannot survive a crash, so the durable
// server writes two extra artifacts:
//
//   - a provenance stamp (most.Prov{Client, Req, Op}) on every WAL record a
//     mutating request produces, revealing on replay how far a request that
//     crashed mid-flight got; and
//   - one "note" WAL record per completed mutating request — a receipt
//     carrying the client, request id, and the response payload exactly as
//     sent (version 2) — appended after the request's own records.
//
// Because a request's records are appended in order by one goroutine and
// torn tails truncate from the end, a partial request's records are always
// a prefix of its operations.  Recovery therefore classifies every request
// it sees: a receipt means "completed — replay the recorded response to a
// retry"; provenance without a receipt means "partial — the retry must roll
// forward, skipping the operations already applied, instead of re-applying
// them".  Both classifications survive checkpoints via the dedup sidecar
// (dedup.json), written atomically under the exclusive commit lock just
// before the WAL is truncated.
//
// # Commit lock
//
// commitMu orders requests against checkpoints: every mutating request
// holds it shared for its whole execute-then-receipt critical section
// (SnapshotLoad, which rebases the WAL, holds it exclusively), and
// Checkpoint holds it exclusively.  A checkpoint therefore never cuts
// between a request's WAL records and its receipt, which is what makes the
// sidecar's receipt set consistent with the snapshot.

// Durable data-directory file names.
const (
	walFile   = "wal.log"
	snapFile  = "checkpoint.json"
	dedupFile = "dedup.json"
)

// receiptRec is one completed mutating request: the WAL note payload and
// the sidecar entry are the same shape.  Frame is the response payload as
// sent to the client, in the protocol version Format names; Op is its
// frame opcode (OpResult or OpError).  Format is always wire.ProtocolV2:
// receipts written before version 2 became the only payload encoding carry
// no Format and hold version-1 JSON, which recovery refuses
// (ErrLegacyReceipts).
type receiptRec struct {
	Client string `json:"c"`
	Req    uint64 `json:"r"`
	Op     uint8  `json:"op"`
	Format uint8  `json:"v"`
	Frame  []byte `json:"f,omitempty"`
}

// ErrLegacyReceipts fails recovery of a data directory whose receipts (WAL
// notes or the dedup.json sidecar) hold version-1 JSON responses, written
// by a server from before version 2 became the only payload encoding.
// Replaying those bytes would hand a retrying client a frame it cannot
// decode.  The one-time migration (PROTOCOL.md §5.1): drain the old server
// cleanly, so its final checkpoint leaves an empty WAL, then remove
// dedup.json.
var ErrLegacyReceipts = errors.New("server: data directory holds version-1 receipts; drain the old server cleanly and remove " + dedupFile)

// partialRec is one request known to have applied operations 0..MaxOp but
// never completed — its retry rolls forward from MaxOp+1.
type partialRec struct {
	Client string `json:"c"`
	Req    uint64 `json:"r"`
	MaxOp  int    `json:"max_op"`
}

// dedupSidecar is the durable form of the idempotence state, written at
// every checkpoint (the WAL truncation would otherwise forget it).
type dedupSidecar struct {
	Receipts []receiptRec `json:"receipts,omitempty"`
	Partials []partialRec `json:"partials,omitempty"`
}

// RecoveryInfo reports what NewDurable rebuilt.
type RecoveryInfo struct {
	// Report is the WAL replay report; nil on a fresh start (no snapshot,
	// no log).  Report.Truncated with a correct database is expected after
	// a crash between checkpoint snapshot and WAL truncation: replay stops
	// at the first record the snapshot already contains.
	Report *most.RecoveryReport
	// Fresh is true when the data directory held no state and the seed
	// database was used.
	Fresh bool
	// Objects and Now describe the recovered database.
	Objects int
	Now     temporal.Tick
	// Receipts and Partials count the rebuilt exactly-once state.
	Receipts int
	Partials int
	// Elapsed is the wall-clock recovery time (also server.recovery_ms).
	Elapsed time.Duration
}

// clientEpoch fences zombie sessions: the newest epoch a ClientID has said
// Hello with, and the session that said it.
type clientEpoch struct {
	epoch uint64
	sess  *session
}

// NewDurable recovers (or seeds) a database from dir and returns a server
// whose commit path is write-ahead logged: wal.log, checkpoint.json, and
// dedup.json under dir.  On a fresh directory the seed callback (nil means
// an empty database) provides the initial state, which is logged as the
// WAL's base image.  cfg.CheckpointEvery > 0 checkpoints automatically
// every N mutating requests; Checkpoint may also be called explicitly, and
// a clean Shutdown checkpoints once more so the next start replays nothing.
func NewDurable(dir string, cfg Config, seed func() *most.Database) (*Server, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: durable dir: %w", err)
	}
	cfg.Health.Set(obs.StateRecovering)
	t0 := time.Now()
	snapPath := filepath.Join(dir, snapFile)
	walPath := filepath.Join(dir, walFile)
	dedupPath := filepath.Join(dir, dedupFile)

	snap, err := os.ReadFile(snapPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read snapshot: %w", err)
	}
	walData, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read wal: %w", err)
	}
	var side dedupSidecar
	if data, err := os.ReadFile(dedupPath); err == nil {
		if err := json.Unmarshal(data, &side); err != nil {
			return nil, nil, fmt.Errorf("server: dedup sidecar: %w", err)
		}
		for _, rec := range side.Receipts {
			if rec.Format != wire.ProtocolV2 {
				return nil, nil, fmt.Errorf("%w (%s)", ErrLegacyReceipts, dedupPath)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("server: read dedup sidecar: %w", err)
	}

	// Rebuild the exactly-once state: sidecar receipts first (they predate
	// everything in the log), then the log's notes and provenance stamps.
	type rkey struct {
		c string
		r uint64
	}
	recMap := map[rkey]receiptRec{}
	var order []rkey
	partials := map[string]map[uint64]int{}
	addReceipt := func(rec receiptRec) {
		k := rkey{rec.Client, rec.Req}
		if _, ok := recMap[k]; !ok {
			order = append(order, k)
		}
		recMap[k] = rec
		if m := partials[rec.Client]; m != nil {
			delete(m, rec.Req)
		}
	}
	for _, rec := range side.Receipts {
		addReceipt(rec)
	}
	for _, p := range side.Partials {
		m := partials[p.Client]
		if m == nil {
			m = map[uint64]int{}
			partials[p.Client] = m
		}
		m[p.Req] = p.MaxOp
	}

	info := &RecoveryInfo{}
	legacy := false
	var db *most.Database
	if len(snap) == 0 && len(walData) == 0 {
		info.Fresh = true
		if seed != nil {
			db = seed()
		} else {
			db = most.NewDatabase()
		}
	} else {
		ob := &most.WALObserver{
			Note: func(tag string, data []byte) {
				if tag != noteTagReceipt {
					return
				}
				var rec receiptRec
				if json.Unmarshal(data, &rec) != nil || rec.Client == "" {
					return
				}
				if rec.Format != wire.ProtocolV2 {
					legacy = true
					return
				}
				addReceipt(rec)
			},
			Applied: func(p most.Prov, _ temporal.Tick) {
				if p.Client == "" {
					return
				}
				if _, done := recMap[rkey{p.Client, p.Req}]; done {
					return
				}
				m := partials[p.Client]
				if m == nil {
					m = map[uint64]int{}
					partials[p.Client] = m
				}
				if op, ok := m[p.Req]; !ok || p.Op > op {
					m[p.Req] = p.Op
				}
			},
		}
		var rep *most.RecoveryReport
		db, rep, err = most.RecoverObserved(snap, walData, ob)
		if err != nil {
			return nil, nil, fmt.Errorf("server: recover: %w", err)
		}
		if legacy {
			return nil, nil, fmt.Errorf("%w (%s)", ErrLegacyReceipts, walPath)
		}
		info.Report = rep
	}
	for c, m := range partials {
		if len(m) == 0 {
			delete(partials, c)
		}
	}

	// Reopen the log for appending (truncating any torn tail) and attach.
	// A clean checkpoint leaves a snapshot next to an empty log: the
	// snapshot already represents the state, so the attach must not write a
	// base image on top of it (the next recovery would replay it twice).
	w, err := most.OpenWAL(walPath)
	if err != nil {
		return nil, nil, err
	}
	if len(snap) > 0 && w.Records() == 0 {
		err = db.AttachWALNoBase(w)
	} else {
		err = db.AttachWAL(w)
	}
	if err != nil {
		w.Close()
		return nil, nil, err
	}

	cfg = cfg.normalized()
	eng := query.NewEngine(db)
	if cfg.Reg != nil {
		db.Instrument(cfg.Reg)
		eng.Instrument(cfg.Reg)
	}
	srv := New(db, eng, cfg)
	srv.durable = true
	srv.wal = w
	srv.snapPath = snapPath
	srv.dedupPath = dedupPath
	srv.checkpointEvery = cfg.CheckpointEvery
	srv.partial = partials

	for _, k := range order {
		rec := recMap[k]
		srv.recovered[rec.Client] = struct{}{}
		cache := srv.dedupFor(rec.Client)
		e, replay := cache.begin(rec.Req)
		if !replay {
			e.finish(wire.Frame{
				Op: wire.Opcode(rec.Op), ID: rec.Req,
				Version: wire.ProtocolV2, Payload: rec.Frame,
			})
		}
	}
	for c := range partials {
		srv.recovered[c] = struct{}{}
		info.Partials += len(partials[c])
	}

	info.Objects = db.Count()
	info.Now = db.Now()
	info.Receipts = len(order)
	info.Elapsed = time.Since(t0)
	srv.m.recoveryMs.Set(info.Elapsed.Milliseconds())
	return srv, info, nil
}

// noteTagReceipt tags completed-request receipt notes in the WAL.
const noteTagReceipt = "req"

// logReceipt appends a completed request's receipt note holding the
// response frame f as sent.  Called with commitMu held (shared or
// exclusive), after the request's own records.
func (srv *Server) logReceipt(client string, req uint64, f wire.Frame) {
	if client == "" || srv.wal == nil {
		return
	}
	data, err := json.Marshal(receiptRec{Client: client, Req: req, Op: uint8(f.Op), Format: wire.ProtocolV2, Frame: f.Payload})
	if err != nil {
		return
	}
	srv.wal.AppendNote(noteTagReceipt, data)
}

// takePartial consumes the recovered roll-forward state for one request:
// the highest operation index already applied before the crash, if replay
// saw provenance for (client, req) without a receipt.
func (srv *Server) takePartial(client string, req uint64) (int, bool) {
	if client == "" || !srv.durable {
		return 0, false
	}
	srv.partialMu.Lock()
	defer srv.partialMu.Unlock()
	m := srv.partial[client]
	if m == nil {
		return 0, false
	}
	op, ok := m[req]
	if ok {
		delete(m, req)
		if len(m) == 0 {
			delete(srv.partial, client)
		}
	}
	return op, ok
}

// wasRecovered reports whether recovery rebuilt any exactly-once state for
// the client — the durable half of HelloResp.Resumed.
func (srv *Server) wasRecovered(client string) bool {
	if client == "" {
		return false
	}
	srv.partialMu.Lock()
	defer srv.partialMu.Unlock()
	_, ok := srv.recovered[client]
	return ok
}

// afterMutation drives the auto-checkpoint policy.
func (srv *Server) afterMutation() {
	if !srv.durable || srv.checkpointEvery <= 0 {
		return
	}
	if srv.mutSince.Add(1)%uint64(srv.checkpointEvery) == 0 {
		srv.Checkpoint()
	}
}

// Checkpoint writes the dedup sidecar and a database snapshot, then
// truncates the WAL, all under the exclusive commit lock so no request is
// split across the cut.  Crash windows are safe in every order: the
// sidecar lands before the snapshot (its receipts are a superset-consistent
// view the WAL notes reproduce), and the snapshot lands durably before the
// log is truncated (most.Database.Checkpoint's fsync discipline).
func (srv *Server) Checkpoint() error {
	if !srv.durable {
		return errors.New("server: not a durable server")
	}
	srv.commitMu.Lock()
	defer srv.commitMu.Unlock()
	data, err := json.MarshalIndent(srv.collectSidecar(), "", " ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(srv.dedupPath, data); err != nil {
		return err
	}
	if err := srv.state().db.Checkpoint(srv.snapPath); err != nil {
		return err
	}
	srv.m.checkpoints.Inc()
	return nil
}

// collectSidecar serializes the live exactly-once state.  Under the
// exclusive commit lock every begun-and-executing request has finished, so
// the rare unfinished entry (reserved but still waiting on the commit lock)
// is safely skipped: its records will land in the post-checkpoint WAL.
func (srv *Server) collectSidecar() *dedupSidecar {
	side := &dedupSidecar{}
	srv.dedupMu.Lock()
	clients := make([]string, 0, len(srv.dedup))
	for c := range srv.dedup {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		cache := srv.dedup[c]
		cache.mu.Lock()
		for _, id := range cache.order {
			e, ok := cache.entries[id]
			if !ok {
				continue
			}
			select {
			case <-e.done:
			default:
				continue
			}
			side.Receipts = append(side.Receipts, receiptRec{
				Client: c, Req: id, Op: uint8(e.frame.Op), Format: wire.ProtocolV2, Frame: e.frame.Payload,
			})
		}
		cache.mu.Unlock()
	}
	srv.dedupMu.Unlock()
	srv.partialMu.Lock()
	for c, m := range srv.partial {
		for r, op := range m {
			side.Partials = append(side.Partials, partialRec{Client: c, Req: r, MaxOp: op})
		}
	}
	srv.partialMu.Unlock()
	sort.Slice(side.Partials, func(i, j int) bool {
		a, b := side.Partials[i], side.Partials[j]
		return a.Client < b.Client || (a.Client == b.Client && a.Req < b.Req)
	})
	return side
}

// writeFileAtomic is the tmp-fsync-rename-dirsync discipline: after it
// returns, path holds either the old contents or the new, never a torn mix.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := dir.Sync()
	dir.Close()
	return serr
}

// Abort kills the server without draining, checkpointing, or flushing: the
// listener closes, every session dies mid-write, and the WAL is left
// exactly as the page cache holds it.  This is the in-process equivalent
// of kill -9, used by the chaos harness to exercise crash recovery.
func (srv *Server) Abort() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	ln := srv.ln
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.kill("server aborted")
	}
	srv.wg.Wait()
	if srv.wal != nil {
		srv.wal.Close()
	}
}

// finishDurable runs at the end of Shutdown: a clean drain earns a final
// checkpoint (the next start replays nothing), a timed-out one just closes
// the log — everything acknowledged is already in it.
func (srv *Server) finishDurable(clean bool) {
	if !srv.durable {
		return
	}
	if clean {
		srv.Checkpoint()
	}
	srv.wal.Close()
}
