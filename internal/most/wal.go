package most

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/mostdb/most/internal/obs"
	"github.com/mostdb/most/internal/temporal"
)

// This file gives the MOST database crash recovery: an append-only
// write-ahead log of explicit updates, periodic snapshots (checkpoints),
// and a replay path that reconstructs an identical database state.  The
// paper assumes the DBMS simply survives ("the database is updated"); a
// serving system must make that true when the machine hosting it does not.
//
// # Log format
//
// One record per line:
//
//	crc32hex<space>json\n
//
// where crc32hex is the IEEE CRC-32 of the JSON payload in fixed-width
// hex.  Records are of three kinds, mirroring the three ways database
// state changes:
//
//   - "class"  — a DefineClass, carrying the class schema;
//   - "clock"  — an Advance, carrying the absolute new tick;
//   - "update" — one explicit update (§2.3), carrying the update kind,
//     the object id, the attribute, and the full post-image of the object
//     revision (nil for deletes).  Post-images make replay idempotent in
//     value: installing the recorded revision reproduces the exact object
//     state regardless of how the mutation computed it.
//
// Records are written inside the database's commit critical sections
// (appendLog under logMu, DefineClass under metaMu, Advance under the
// exclusive clock lock), so WAL order equals commit order; replaying the
// records in sequence through the normal mutation paths therefore rebuilds
// a byte-identical SnapshotJSON.
//
// # Failure safety
//
// Replay verifies each record's CRC and stops at the first corrupt,
// truncated, or inapplicable record, returning everything recovered up to
// that point plus a RecoveryReport — a partially torn tail (the common
// crash artifact) costs only the torn suffix, never a panic.  OpenWAL
// truncates any torn tail before appending, so a log reopened after a
// crash stays recoverable end to end.
//
// Appends buffer in the OS page cache; they survive a process crash as-is,
// but power-loss durability requires explicit WAL.Sync calls.  Checkpoint
// fsyncs its snapshot (and the containing directory) before truncating the
// log, so a checkpoint never trades a durable log for a volatile snapshot.

// walRecord is one WAL entry.  Beyond the original three kinds, "note" is
// an opaque annotation that does not touch database state on replay (the
// server logs executed-request receipts through it), and "reset" discards
// everything recovered so far and restarts replay from an empty database
// (written when the served database is wholesale replaced, so the log alone
// reconstructs the post-replacement state even over a stale snapshot).
type walRecord struct {
	Seq    uint64         `json:"seq"`
	Kind   string         `json:"kind"` // "class" | "clock" | "update" | "note" | "reset"
	Now    *temporal.Tick `json:"now,omitempty"`
	Class  *classDTO      `json:"class,omitempty"`
	Update *walUpdate     `json:"update,omitempty"`
	Prov   *Prov          `json:"prov,omitempty"`
	Tag    string         `json:"tag,omitempty"`
	Data   []byte         `json:"data,omitempty"`
}

// walUpdate serializes one explicit update with its post-image.
type walUpdate struct {
	Tick   temporal.Tick `json:"tick"`
	Kind   UpdateKind    `json:"kind"`
	Object string        `json:"object"`
	Attr   string        `json:"attr,omitempty"`
	After  *objectDTO    `json:"after,omitempty"`
}

// WAL is an append-only write-ahead log.  Attach one to a Database with
// AttachWAL; every subsequent class definition, clock advance, and explicit
// update is appended before the operation returns.  Safe for concurrent use
// (the database appends from whatever goroutine commits).
//
// # Group commit
//
// Concurrent appends coalesce: each append serializes its record into a
// shared staging buffer, and one appender — the leader — writes the whole
// batch in a single Write while later arrivals stage behind it.  Every
// append still blocks until the batch holding its record has been written,
// so the "record is in the page cache when append returns" contract is
// unchanged; what changes is the syscall count under contention (one per
// batch instead of one per record — wal.flushes vs wal.appends in /obs).
//
// A write error marks the WAL broken: further appends are dropped and Err
// returns the first failure.  The database keeps serving — losing the log
// degrades durability, not availability — but callers should treat a
// non-nil Err as "stop trusting this log".
type WAL struct {
	mu   sync.Mutex
	w    io.Writer
	file *os.File // non-nil when opened by path; enables Checkpoint truncation
	seq  uint64
	err  error

	// Group-commit state, all under mu.  staging accumulates serialized
	// records for the batch identified by gen; spare is the double buffer
	// the leader swaps in while writing; flushedGen is the newest batch
	// generation durably handed to the writer.  flushed is signalled after
	// every batch write (lazily created on first append).
	staging    []byte
	spare      []byte
	gen        uint64
	flushedGen uint64
	flushing   bool
	flushed    *sync.Cond

	// Observability instruments (nil when uninstrumented); set via
	// WAL.Instrument in obs.go, read under mu.
	appends  *obs.Counter
	appendNs *obs.Histogram
	flushes  *obs.Counter
	syncs    *obs.Counter
	syncNs   *obs.Histogram
}

// NewWAL wraps an arbitrary writer (e.g. a bytes.Buffer in tests or an
// already-open file).  If w implements interface{ Reset() } the WAL can be
// checkpointed.
func NewWAL(w io.Writer) *WAL { return &WAL{w: w} }

// OpenWAL opens (creating if needed) a file-backed WAL for appending.  An
// existing log is preserved, except that a torn tail — a half-written final
// record with no trailing newline, the usual artifact of a crash mid-append —
// is truncated away first.  Appending onto the fragment would otherwise merge
// the new record into the same line, corrupting it too and cutting recovery
// off at that point.  The torn record itself was never durably committed, so
// dropping it is the correct outcome.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	end, n, err := scanRecords(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("most: open wal: %w", err)
	}
	return &WAL{w: f, file: f, seq: uint64(n)}, nil
}

// scanRecords finds the byte offset just past the last newline-terminated
// record and the number of such records.  Anything beyond end is a torn
// fragment.
func scanRecords(f *os.File) (end int64, n int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			return end, n, nil
		}
		if err != nil {
			return 0, 0, err
		}
		end += int64(len(line))
		n++
	}
}

// Records returns the number of records appended through this handle (for
// file-backed WALs, including those already on disk when opened).
func (w *WAL) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the first append failure, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync flushes a file-backed WAL to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return nil
	}
	var t0 time.Time
	if w.syncNs != nil {
		t0 = time.Now()
	}
	err := w.file.Sync()
	w.syncs.Inc()
	w.syncNs.Since(t0)
	return err
}

// Close closes a file-backed WAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return nil
	}
	return w.file.Close()
}

// append frames, checksums, stages, and group-commits one record: the
// record joins the staging batch, and the call returns once the batch
// holding it has been written (by this appender if it elected itself
// leader, by the current leader otherwise).  Errors are sticky.
func (w *WAL) append(rec walRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if w.flushed == nil {
		w.flushed = sync.NewCond(&w.mu)
	}
	var t0 time.Time
	if w.appendNs != nil {
		t0 = time.Now()
	}
	w.seq++
	rec.Seq = w.seq
	payload, err := json.Marshal(rec)
	if err != nil {
		w.err = fmt.Errorf("most: wal encode: %w", err)
		return
	}
	w.staging = append(w.staging, fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))...)
	w.staging = append(w.staging, ' ')
	w.staging = append(w.staging, payload...)
	w.staging = append(w.staging, '\n')
	myGen := w.gen
	if w.flushing {
		// A leader is writing: it will pick this record up when it swaps
		// buffers for its next batch.  Wait for that batch to land.
		for w.flushedGen <= myGen && w.err == nil {
			w.flushed.Wait()
		}
	} else {
		// Become the leader: write batches until the staging buffer drains,
		// releasing mu during each write so later appends coalesce behind us.
		w.flushing = true
		for len(w.staging) > 0 && w.err == nil {
			batch := w.staging
			batchGen := w.gen
			w.staging = w.spare[:0]
			w.spare = nil
			w.gen++
			w.mu.Unlock()
			_, werr := w.w.Write(batch)
			w.mu.Lock()
			w.spare = batch[:0]
			if werr != nil {
				w.err = fmt.Errorf("most: wal append: %w", werr)
			}
			w.flushes.Inc()
			w.flushedGen = batchGen + 1
			w.flushed.Broadcast()
		}
		w.flushing = false
	}
	if w.err != nil {
		return
	}
	w.appends.Inc()
	w.appendNs.Since(t0)
}

// reset truncates the log after a checkpoint.  Only file-backed WALs and
// writers with a Reset method (bytes.Buffer) support it.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.file != nil:
		if err := w.file.Truncate(0); err != nil {
			return fmt.Errorf("most: wal truncate: %w", err)
		}
		if _, err := w.file.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("most: wal truncate: %w", err)
		}
	default:
		r, ok := w.w.(interface{ Reset() })
		if !ok {
			return fmt.Errorf("most: this WAL's writer cannot be truncated")
		}
		r.Reset()
	}
	w.seq = 0
	w.err = nil
	// A broken WAL may have left staged-but-unwritten records behind; a
	// truncation starts from a clean slate.
	w.staging = w.staging[:0]
	return nil
}

func (w *WAL) appendClass(c *Class) {
	cd := encodeClass(c)
	w.append(walRecord{Kind: "class", Class: &cd})
}

func (w *WAL) appendClock(now temporal.Tick, p *Prov) {
	w.append(walRecord{Kind: "clock", Now: &now, Prov: p})
}

func (w *WAL) appendUpdate(u Update) {
	wu := walUpdate{Tick: u.Tick, Kind: u.Kind, Object: string(u.Object), Attr: u.Attr}
	if u.After != nil {
		od := encodeObject(u.After)
		wu.After = &od
	}
	w.append(walRecord{Kind: "update", Update: &wu, Prov: u.Prov})
}

// AppendNote logs an opaque annotation record.  Notes do not change
// database state on replay; WALObserver surfaces them during recovery.
// The server uses notes to make its idempotence cache durable: one note
// per executed mutating request, appended after the request's own records.
func (w *WAL) AppendNote(tag string, data []byte) error {
	w.append(walRecord{Kind: "note", Tag: tag, Data: data})
	return w.Err()
}

// Reset truncates the log (after an external checkpoint equivalent), like
// the truncation Checkpoint performs.  Callers own the proof that the
// state the log represented is durable elsewhere.
func (w *WAL) Reset() error { return w.reset() }

// AttachWAL starts logging the database to w.  If the database already
// holds state and the log is empty, a base image (classes, clock, one
// insert per live object) is written first so the log alone reconstructs
// the current state; if the log already has records — reopened after a
// crash, or freshly checkpointed — the base image is skipped, because the
// log (plus its checkpoint snapshot) already represents the state.
//
// Attach at most one WAL per database, before or between commits; the
// attachment itself quiesces in-flight commits.
func (db *Database) AttachWAL(w *WAL) error {
	if w == nil {
		return fmt.Errorf("most: nil WAL")
	}
	// Quiesce every commit path so the base image and the attach point are
	// one atomic cut: clock + all shards block updates and Advance, metaMu
	// blocks DefineClass.
	db.lockAllRead()
	defer db.unlockAllRead()
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	if !db.wal.CompareAndSwap(nil, w) {
		return fmt.Errorf("most: database already has a WAL attached")
	}
	// An already-instrumented database extends its instrumentation to the
	// newly attached log.
	if o := db.obsv.Load(); o != nil {
		w.Instrument(o.reg)
	}
	if w.Records() > 0 {
		return w.Err()
	}
	empty := db.now == 0 && len(db.classes) == 0
	for i := range db.shards {
		empty = empty && len(db.shards[i].objects) == 0
	}
	if empty {
		return w.Err()
	}
	db.appendBaseImageLocked(w)
	return w.Err()
}

// AttachWALNoBase attaches w without ever writing a base image, whatever
// the database and log contents.  A durable server uses it when reopening
// an empty post-checkpoint log next to a snapshot that already represents
// the database: re-logging the state would make the snapshot and the log
// redundantly overlap, breaking the next recovery's replay.
func (db *Database) AttachWALNoBase(w *WAL) error {
	if w == nil {
		return fmt.Errorf("most: nil WAL")
	}
	db.lockAllRead()
	defer db.unlockAllRead()
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	if !db.wal.CompareAndSwap(nil, w) {
		return fmt.Errorf("most: database already has a WAL attached")
	}
	if o := db.obsv.Load(); o != nil {
		w.Instrument(o.reg)
	}
	return w.Err()
}

// appendBaseImageLocked re-logs the database's full current state (classes,
// clock, one insert per live object).  Callers hold the full read quiesce.
func (db *Database) appendBaseImageLocked(w *WAL) {
	dto := db.snapshotDTOLocked()
	for i := range dto.Classes {
		w.append(walRecord{Kind: "class", Class: &dto.Classes[i]})
	}
	w.appendClock(dto.Now, nil)
	for i := range dto.Objects {
		w.append(walRecord{Kind: "update", Update: &walUpdate{
			Tick: dto.Now, Kind: UpdateInsert, Object: dto.Objects[i].ID, After: &dto.Objects[i],
		}})
	}
}

// DetachWAL unhooks and returns the database's WAL (nil if none was
// attached).  Subsequent commits stop logging; the caller typically hands
// the WAL to a replacement database via RebaseWAL.
func (db *Database) DetachWAL() *WAL { return db.wal.Swap(nil) }

// RebaseWAL truncates w and re-logs this database's full state behind a
// "reset" record, then attaches w.  Replaying the resulting log discards
// everything accumulated before the reset — including a stale checkpoint
// snapshot — so the log alone reconstructs exactly this database.  This is
// the durable form of wholesale state replacement (SnapshotLoad): a crash
// mid-rebase recovers to a prefix of the new state, which the retried
// replacement request then overwrites.
func (db *Database) RebaseWAL(w *WAL) error {
	if w == nil {
		return fmt.Errorf("most: nil WAL")
	}
	if err := w.reset(); err != nil {
		return err
	}
	db.lockAllRead()
	defer db.unlockAllRead()
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	if !db.wal.CompareAndSwap(nil, w) {
		return fmt.Errorf("most: database already has a WAL attached")
	}
	if o := db.obsv.Load(); o != nil {
		w.Instrument(o.reg)
	}
	w.append(walRecord{Kind: "reset"})
	db.appendBaseImageLocked(w)
	return w.Err()
}

// Checkpoint writes a consistent snapshot of the current state to snapPath
// (atomically, via a temp file and rename) and truncates the attached WAL:
// recovery then needs only the snapshot plus the post-checkpoint log tail.
// Commits are quiesced for the duration, exactly like SnapshotJSON.
func (db *Database) Checkpoint(snapPath string) error {
	w := db.wal.Load()
	if w == nil {
		return fmt.Errorf("most: no WAL attached")
	}
	db.lockAllRead()
	defer db.unlockAllRead()
	db.metaMu.RLock()
	defer db.metaMu.RUnlock()
	dto := db.snapshotDTOLocked()
	dto.Version = db.Version()
	data, err := json.MarshalIndent(dto, "", "  ")
	if err != nil {
		return err
	}
	// The WAL may only be truncated once the snapshot that replaces it is
	// durable: fsync the temp file before the rename, and fsync the
	// directory after, so a power loss at any point leaves either the old
	// (snapshot, log) pair or the new one — never a missing snapshot with
	// an already-empty log.
	tmp := snapPath + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(snapPath)); err == nil {
		serr := dir.Sync()
		dir.Close()
		if serr != nil {
			return fmt.Errorf("most: checkpoint: %w", serr)
		}
	} else {
		return fmt.Errorf("most: checkpoint: %w", err)
	}
	return w.reset()
}

// RecoveryReport describes how a recovery went.
type RecoveryReport struct {
	// Records is the number of WAL records successfully applied.
	Records int
	// Truncated is true when replay stopped before the end of the log —
	// the tail was corrupt, torn, or inapplicable.  The returned database
	// holds everything up to the failure point.
	Truncated bool
	// BadLine is the 1-based line number of the first bad record (0 when
	// !Truncated).
	BadLine int
	// Reason says why replay stopped (empty when !Truncated).
	Reason string
}

// WALObserver watches a recovery replay.  Both callbacks are optional.
// Note fires for every "note" record (which never touches database state);
// Applied fires after every successfully replayed provenance-stamped record
// with the database clock as of that record.  Together they let a durable
// server rebuild its exactly-once state: notes carry completed-request
// receipts, and Applied reveals how far a request that crashed mid-flight
// got, so its retry can roll forward instead of re-applying.
type WALObserver struct {
	Note    func(tag string, data []byte)
	Applied func(p Prov, now temporal.Tick)
}

// Recover rebuilds a database from an optional checkpoint snapshot and a
// WAL.  A nil/empty snapshot means the log starts from an empty database.
// Corrupt or truncated logs are not an error: replay keeps everything up
// to the first bad record and reports the damage.  An unreadable snapshot
// IS an error — there is no safe prefix to fall back to.
func Recover(snapshot, wal []byte) (*Database, *RecoveryReport, error) {
	return RecoverObserved(snapshot, wal, nil)
}

// RecoverObserved is Recover with a replay observer (see WALObserver).
func RecoverObserved(snapshot, wal []byte, ob *WALObserver) (*Database, *RecoveryReport, error) {
	var db *Database
	if len(snapshot) > 0 {
		var err error
		db, err = LoadSnapshotJSON(snapshot)
		if err != nil {
			return nil, nil, err
		}
	} else {
		db = NewDatabase()
	}
	rep := &RecoveryReport{}
	stop := func(line int, reason string) {
		rep.Truncated = true
		rep.BadLine = line
		rep.Reason = reason
	}
	lines := bytes.Split(wal, []byte("\n"))
	for i, line := range lines {
		if len(line) == 0 {
			if i == len(lines)-1 {
				break // trailing newline
			}
			stop(i+1, "empty record")
			break
		}
		rec, err := parseWALLine(line)
		if err != nil {
			stop(i+1, err.Error())
			break
		}
		switch rec.Kind {
		case "reset":
			// Wholesale state replacement: discard everything recovered so
			// far (snapshot included) and rebuild from the records that
			// follow — the base image the rebase logged.
			db = NewDatabase()
		case "note":
			if ob != nil && ob.Note != nil {
				ob.Note(rec.Tag, rec.Data)
			}
		default:
			if err := db.applyWALRecord(rec); err != nil {
				stop(i+1, err.Error())
				break
			}
			if rec.Prov != nil && ob != nil && ob.Applied != nil {
				ob.Applied(*rec.Prov, db.Now())
			}
		}
		if rep.Truncated {
			break
		}
		rep.Records++
	}
	return db, rep, nil
}

// RecoverFiles is Recover over a snapshot path (missing file = no
// checkpoint) and a WAL path (missing file = empty log).
func RecoverFiles(snapPath, walPath string) (*Database, *RecoveryReport, error) {
	return RecoverFilesObserved(snapPath, walPath, nil)
}

// RecoverFilesObserved is RecoverFiles with a replay observer.
func RecoverFilesObserved(snapPath, walPath string, ob *WALObserver) (*Database, *RecoveryReport, error) {
	snap, err := os.ReadFile(snapPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	wal, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	return RecoverObserved(snap, wal, ob)
}

func parseWALLine(line []byte) (walRecord, error) {
	var rec walRecord
	sp := bytes.IndexByte(line, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("bad frame")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("bad checksum field")
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return rec, fmt.Errorf("checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("bad record json: %v", err)
	}
	return rec, nil
}

// applyWALRecord replays one record through the normal mutation paths.
func (db *Database) applyWALRecord(rec walRecord) error {
	switch rec.Kind {
	case "class":
		if rec.Class == nil {
			return fmt.Errorf("class record without class")
		}
		c, err := decodeClass(*rec.Class)
		if err != nil {
			return err
		}
		return db.DefineClass(c)
	case "clock":
		if rec.Now == nil {
			return fmt.Errorf("clock record without tick")
		}
		if *rec.Now < db.Now() {
			return fmt.Errorf("clock record runs backwards (%d < %d)", *rec.Now, db.Now())
		}
		db.Advance(*rec.Now - db.Now())
		return nil
	case "update":
		u := rec.Update
		if u == nil {
			return fmt.Errorf("update record without update")
		}
		switch u.Kind {
		case UpdateInsert:
			if u.After == nil {
				return fmt.Errorf("insert of %s without post-image", u.Object)
			}
			o, err := decodeObject(db, *u.After)
			if err != nil {
				return err
			}
			return db.insert(o, rec.Prov)
		case UpdateDelete:
			return db.delete(ObjectID(u.Object), rec.Prov)
		case UpdateStatic, UpdateDynamic:
			if u.After == nil {
				return fmt.Errorf("update of %s without post-image", u.Object)
			}
			o, err := decodeObject(db, *u.After)
			if err != nil {
				return err
			}
			// Install the recorded post-image wholesale: replay reproduces
			// the exact revision the original mutation computed.
			return db.mutate(ObjectID(u.Object), u.Kind, u.Attr, rec.Prov, func(*Object, temporal.Tick) (*Object, error) {
				return o, nil
			})
		default:
			return fmt.Errorf("unknown update kind %d", u.Kind)
		}
	default:
		return fmt.Errorf("unknown record kind %q", rec.Kind)
	}
}
