package chaos

import (
	"time"
)

// The three scripted scenarios.  Each is deterministic in outcome for a
// given seed — the schedule the scheduler actually produces varies, but
// the committed state it must converge to does not, and that is what the
// harness asserts.

// KillRestart hard-kills the server in the middle of a committing phase
// and restarts it from the write-ahead log alone (no checkpoints), the
// purest crash-recovery path: every acknowledged mutation must survive,
// every in-flight retry must land exactly once, every subscription must
// resume without the caller noticing.
func KillRestart(dir string, seed int64) (Result, error) {
	cfg := DefaultConfig(dir, seed)
	cfg.CheckpointEvery = 0 // recovery replays the full log
	h, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.Close()

	if err := h.RunPhase(nil); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(func() error {
		time.Sleep(20 * time.Millisecond) // let commits get in flight
		h.Kill()
		return h.Restart()
	}); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(nil); err != nil {
		return h.Result(), err
	}
	if err := h.Verify(); err != nil {
		return h.Result(), err
	}
	return h.Result(), nil
}

// Partition severs client↔server links mid-phase — first a minority of
// clients, then every client at once — without ever touching the server.
// Self-healing alone must carry it: calls ride out the partition under
// one request ID, subscriptions park and resume, and the healed fleet's
// state matches the oracle exactly.
func Partition(dir string, seed int64) (Result, error) {
	cfg := DefaultConfig(dir, seed)
	cfg.CheckpointEvery = 0
	h, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.Close()

	if err := h.RunPhase(nil); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(func() error {
		time.Sleep(15 * time.Millisecond)
		gates := h.Gates()
		gates[1].Sever()
		gates[len(gates)-1].Sever()
		time.Sleep(80 * time.Millisecond)
		gates[1].Heal()
		gates[len(gates)-1].Heal()
		return nil
	}); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(func() error {
		time.Sleep(10 * time.Millisecond)
		for _, g := range h.Gates() {
			g.Sever()
		}
		time.Sleep(80 * time.Millisecond)
		for _, g := range h.Gates() {
			g.Heal()
		}
		return nil
	}); err != nil {
		return h.Result(), err
	}
	if err := h.Verify(); err != nil {
		return h.Result(), err
	}
	return h.Result(), nil
}

// Churn is sustained failure under checkpointing: frequent auto
// checkpoints, an explicit one, two kill/restart cycles, and finally a
// clean drain followed by one more recovery — proving the checkpoint
// fast path, the checkpoint+log mixed path, and the clean-shutdown path
// all reproduce the same oracle state and commit version.
func Churn(dir string, seed int64) (Result, error) {
	cfg := DefaultConfig(dir, seed)
	cfg.CheckpointEvery = 5
	h, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.Close()

	if err := h.RunPhase(nil); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(func() error {
		time.Sleep(15 * time.Millisecond)
		h.Kill()
		return h.Restart()
	}); err != nil {
		return h.Result(), err
	}
	if err := h.Checkpoint(); err != nil {
		return h.Result(), err
	}
	if err := h.RunPhase(func() error {
		time.Sleep(25 * time.Millisecond)
		h.Kill()
		return h.Restart()
	}); err != nil {
		return h.Result(), err
	}
	if err := h.Verify(); err != nil {
		return h.Result(), err
	}

	// Clean drain checkpoints; the next recovery replays (almost) nothing
	// and must still land on the oracle's exact state.
	if err := h.Shutdown(10 * time.Second); err != nil {
		return h.Result(), err
	}
	if err := h.Restart(); err != nil {
		return h.Result(), err
	}
	if err := h.Verify(); err != nil {
		return h.Result(), err
	}
	return h.Result(), nil
}
