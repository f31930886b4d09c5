package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// errObserveInternal marks observe failures that are the server's fault —
// the handler answers 500, not 400.
var errObserveInternal = errors.New("serve: internal observe failure")

// online is the server's mutable fitting state: a Fitter resumed from the
// serving snapshot that absorbs /v1/observe traffic. The Fitter itself is
// not concurrent-safe; mutations happen under mu. A background refit owns
// the fitter for its whole compute without holding mu — observes that arrive
// meanwhile are validated, journaled, and buffered into the staging queue
// (under stageMu, so they never block behind the refit), then drained into
// the fitter when the refit's results are swapped in.
type online struct {
	mu      sync.Mutex
	fitter  *core.Fitter
	pending int // observations accepted since the last refit

	// refitting tracks the single in-flight background refit; refitFitter is
	// the fitter that refit owns. A reload can install a new fitter while a
	// refit still runs on the abandoned one — observes then mutate the new
	// fitter under mu as usual, because only refitFitter is owned elsewhere;
	// refitCancel lets the reload abort the abandoned compute within one ALS
	// iteration instead of letting it burn cores to produce a discarded
	// result.
	refitting   bool
	refitFitter *core.Fitter
	refitCancel context.CancelFunc

	// gen counts superseding events (reloads). Off-lock data-dir writers
	// (compaction) capture it with their inputs; the generation check under
	// Server.durMu keeps a compaction captured before a reload from
	// overwriting the re-based directory.
	gen int64

	// The staging queue. staging is true exactly while an in-flight refit
	// owns the serving fitter; stagedDims simulates the fitter's shape across
	// the staged batches so fold-ins plan deterministically at staging time
	// and apply identically at drain time (a refit never changes dims).
	stageMu     sync.Mutex
	staging     bool
	staged      []stagedBatch
	stagedDims  []int
	stagedCount int
}

// stagedBatch is one journaled-but-not-yet-applied observe batch buffered
// while a refit owns the fitter. The journal sequence rides along so the
// replication applied-sequence can advance exactly when the drain applies
// the batch — the stream never ships records the primary's own model does
// not yet reflect.
type stagedBatch struct {
	seq uint64
	obs []core.Observation
}

// --- request/response shapes ---

type observeRequest struct {
	Observations []core.Observation `json:"observations"`
}

type foldResult struct {
	Mode  int `json:"mode"`
	Index int `json:"index"`
	NNZ   int `json:"nnz"`
}

type observeResponse struct {
	Appended int          `json:"appended"`
	Folded   []foldResult `json:"folded,omitempty"`
	Dims     []int        `json:"dims"`
	Pending  int          `json:"pending"`
	// Staged reports that the batch was accepted (and journaled) while a
	// background refit was in flight: it is applied — and its folded rows
	// become servable — when the refit finishes, not when this returns.
	Staged         bool `json:"staged,omitempty"`
	RefitTriggered bool `json:"refit_triggered,omitempty"`
}

// handleObserve is POST /v1/observe: append observations to the online
// training set, fold brand-new indices in as fresh factor rows, and
// atomically publish the grown model — in-flight predictions finish on the
// snapshot they started with, the same discipline as /v1/reload. With a data
// directory configured, every accepted batch is journaled before it is
// applied, so a crash replays it. When Options.RefitAfter observations have
// accumulated, a background warm refit is triggered and its result swapped
// in the same way; batches arriving during the refit are staged, not
// blocked.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	s.met.requests("observe").Add(1)
	var req observeRequest
	if !s.post(w, r, "observe", &req) {
		return
	}
	if len(req.Observations) == 0 {
		s.badRequest(w, "observe", fmt.Errorf("no observations"))
		return
	}
	resp, err := s.observe(r.Context(), req.Observations)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, errObserveInternal):
		s.met.errors("observe").Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Nothing was applied. Past the request deadline this write becomes
		// the timeout 503; a cancelled request's answer goes nowhere.
		s.met.errors("observe").Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		s.badRequest(w, "observe", err)
	}
}

// observe validates, journals, applies, and publishes one batch of
// observations — or stages it when a background refit owns the fitter.
func (s *Server) observe(ctx context.Context, obs []core.Observation) (*observeResponse, error) {
	o := &s.online
	for {
		o.mu.Lock()

		// The lock may have been held for a while; if the request's deadline
		// passed meanwhile the client was already told 503 — applying now
		// would make a retry double-count the observations, so the batch is
		// dropped whole instead.
		if err := ctx.Err(); err != nil {
			o.mu.Unlock()
			return nil, err
		}
		// Stage only while a live refit owns the serving fitter. The nil
		// check matters: after a reload (fitter=nil) during a refit's
		// compaction tail (refitFitter already nil), nil==nil must not send
		// observes into a closed staging window to spin.
		if !(o.refitting && o.refitFitter != nil && o.fitter == o.refitFitter) {
			break // hold mu; the fitter is ours to mutate
		}
		o.mu.Unlock()
		resp, retry, err := s.stageObserve(ctx, obs)
		if !retry {
			return resp, err
		}
		// The staging window closed between the two locks (the refit drained,
		// or a reload superseded it) — go around and take the normal path.
	}
	defer o.mu.Unlock()

	if o.fitter == nil {
		f, err := s.resumeFitter(s.snapshot().model)
		if err != nil {
			return nil, fmt.Errorf("%w: resume fitter: %v", errObserveInternal, err)
		}
		o.fitter = f
	}
	f := o.fitter

	// Plan first (pure, against a simulated shape), apply second: a request
	// with any unplaceable observation is rejected whole, so a 400 never
	// leaves the model half-updated.
	plan, err := planObservations(f.Dims(), obs)
	if err != nil {
		return nil, err
	}

	// Journal before applying: once the batch mutates the fitter it must be
	// recoverable, so a journal failure rejects the batch untouched.
	seq, err := s.journalAppend(obs)
	if err != nil {
		return nil, err
	}

	resp, err := s.applyPlan(f, plan, true)
	if err != nil {
		return nil, err
	}
	s.met.observations.Add(int64(len(obs)))

	// Publish grown models: predictions and recommendations for folded-in
	// rows work the moment this returns. Append-only batches change nothing
	// a predictor can see (they take effect at the next refit), so the
	// current snapshot — and its file provenance on /healthz — stays put.
	if len(resp.Folded) > 0 {
		s.install(f.Snapshot())
	}
	// The record is applied; replication may now stream it (the snapshot
	// store above happens first, still under mu, so a bootstrap capture
	// always pairs the sequence with a model that reflects it).
	if seq > 0 {
		s.repl.advance(seq)
	}

	o.pending += len(obs)
	if s.opts.RefitAfter > 0 && o.pending >= s.opts.RefitAfter && !o.refitting {
		s.triggerRefit(f)
		resp.RefitTriggered = true
	}
	// Size-triggered journal compaction (no refit): checked after the refit
	// trigger so a batch that just started a refit defers to that refit's own
	// compaction instead of racing it.
	s.maybeCompactBySize(f)
	resp.Dims = f.Dims()
	resp.Pending = o.pending
	return resp, nil
}

// resumeFitter wraps m in a Fitter configured for this server: the model's
// own config, with Options.Sparsify overriding the pruning budget and the
// held-out set (when loaded) attached as the budget's scoring set — so
// background refits of a sparsified deployment re-prune, gated on
// generalization when a holdout is available.
func (s *Server) resumeFitter(m *core.Model) (*core.Fitter, error) {
	cfg := m.Config
	if s.opts.Sparsify > 0 {
		cfg.Sparsify = s.opts.Sparsify
	}
	if cfg.Sparsify > 0 && s.holdout != nil {
		cfg.SparsifyHoldout = s.holdout
	}
	// Surface refit progress on /metrics: OnIteration runs between ALS
	// iterations on the refit goroutine, so the gauges track the in-flight
	// refit live. (It is fit-time input, never serialized, so a resumed
	// model always needs it re-attached here.)
	cfg.OnIteration = func(st core.IterStats) error {
		s.met.refitIter.Store(int64(st.Iter))
		s.met.refitFitError.Store(math.Float64bits(st.Error))
		return nil
	}
	return core.ResumeFitter(m, cfg)
}

// triggerRefit hands the fitter to a background warm refit and opens the
// staging window. The caller holds online.mu and has already checked that no
// refit is in flight; pending resets because the refit will absorb it.
func (s *Server) triggerRefit(f *core.Fitter) {
	o := &s.online
	o.refitting = true
	o.refitFitter = f
	absorbed := o.pending
	o.pending = 0
	s.met.refitState.Store(refitFitting)
	s.met.refitIter.Store(0)
	s.event(slog.LevelInfo, "refit started", "observations", absorbed, "dims", fmt.Sprint(f.Dims()))
	// The refit's context chains off the server lifetime (Close aborts
	// it) and is additionally cancellable by a superseding reload.
	rctx, cancel := context.WithCancel(s.life)
	o.refitCancel = cancel
	// Open the staging window before the refit goroutine exists, so no
	// observe can slip between "refit owns the fitter" and "staging is
	// accepting".
	o.stageMu.Lock()
	o.staging = true
	o.stagedDims = f.Dims()
	o.stagedCount = 0
	o.stageMu.Unlock()
	go s.backgroundRefit(rctx, f, cancel)
}

// stageObserve accepts a batch while a refit owns the fitter: it plans
// against the simulated staged shape, journals, and buffers the raw batch
// for the post-refit drain. It reports retry=true when the staging window is
// closed (the caller re-takes the normal path).
func (s *Server) stageObserve(ctx context.Context, obs []core.Observation) (*observeResponse, bool, error) {
	o := &s.online
	o.stageMu.Lock()
	defer o.stageMu.Unlock()
	if !o.staging {
		return nil, true, nil
	}
	// Same discipline as the normal path: queueing behind other staged
	// appends (each an fsync under SyncAlways) may have outlived the request
	// deadline, and the client was already told 503 — applying now would
	// make a retry double-count the batch.
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	plan, err := planObservations(o.stagedDims, obs)
	if err != nil {
		return nil, false, err
	}
	seq, err := s.journalAppend(obs)
	if err != nil {
		return nil, false, err
	}
	o.staged = append(o.staged, stagedBatch{seq: seq, obs: obs})
	o.stagedCount += len(obs)

	resp := &observeResponse{Appended: len(plan.appends), Staged: true, Pending: o.stagedCount}
	for _, g := range plan.folds {
		o.stagedDims[g.mode]++
		resp.Folded = append(resp.Folded, foldResult{Mode: g.mode, Index: g.index, NNZ: len(g.obs)})
	}
	resp.Dims = append([]int(nil), o.stagedDims...)
	s.met.observations.Add(int64(len(obs)))
	s.met.stagedObservations.Add(int64(len(obs)))
	return resp, false, nil
}

// applyPlan runs one planned batch against the fitter; the caller holds
// online.mu (or is the single-threaded startup replay). live=false suppresses
// the traffic counters during replay. On an (unreachable if the plan is
// sound) apply failure, whatever did fold is published so the served snapshot
// never diverges from the fitter, and the fault is reported as the server's
// own (500, not 400).
func (s *Server) applyPlan(f *core.Fitter, plan *obsPlan, live bool) (*observeResponse, error) {
	resp := &observeResponse{Appended: len(plan.appends)}
	for _, g := range plan.folds {
		t0 := time.Now()
		if _, err := f.FoldIn(g.mode, g.obs); err != nil {
			if len(resp.Folded) > 0 {
				s.install(f.Snapshot())
			}
			return nil, fmt.Errorf("%w: fold-in mode %d: %v", errObserveInternal, g.mode, err)
		}
		resp.Folded = append(resp.Folded, foldResult{Mode: g.mode, Index: g.index, NNZ: len(g.obs)})
		if live {
			s.met.foldIns.Add(1)
			s.met.foldInDur.ObserveSince(t0)
		}
	}
	if len(plan.appends) > 0 {
		if err := f.Observe(plan.appends); err != nil {
			if len(resp.Folded) > 0 {
				s.install(f.Snapshot())
			}
			return nil, fmt.Errorf("%w: append: %v", errObserveInternal, err)
		}
	}
	return resp, nil
}

// backgroundRefit runs a warm-started Refit over everything the fitter has
// accumulated and publishes the result. It owns the fitter for the compute
// but does NOT hold online.mu — concurrent observes stage instead of
// blocking, and prediction traffic is unaffected as always. After the swap
// it drains the staging queue into the fitter, closes the staging window,
// and compacts the journal into a fresh snapshot. If a reload replaced the
// online state while the refit ran, the refit is abandoned — the reloaded
// model wins. The refit runs under the server's lifetime context, so Close
// stops it within one ALS iteration instead of letting it outlive the
// server.
func (s *Server) backgroundRefit(ctx context.Context, f *core.Fitter, cancel context.CancelFunc) {
	defer cancel()
	t0 := time.Now()
	o := &s.online
	m, err := f.Refit(ctx, nil)

	o.mu.Lock()
	if o.fitter != f {
		// A reload superseded this refit; it already closed the staging
		// window and dropped the staged batches along with the online state.
		o.refitting = false
		o.refitFitter = nil
		o.refitCancel = nil
		s.met.refitState.Store(refitIdle)
		o.mu.Unlock()
		s.event(slog.LevelWarn, "refit abandoned", "reason", "superseded by reload", "duration", time.Since(t0))
		return
	}
	refitOK := err == nil
	if refitOK {
		s.met.refits.Add(1)
		s.met.refitState.Store(refitPublishing)
	} else if !errors.Is(err, context.Canceled) {
		s.met.refitErrors.Add(1)
	}
	refitErr := err

	// Drain the staging queue under mu, looping until a pass finds it empty —
	// only then is the window closed, atomically with the last check, so no
	// staged batch is ever stranded. Batches were validated at staging time
	// against the same dims progression, so plan errors here are unreachable;
	// a batch that still fails is dropped rather than wedging the drain.
	drainedFolds := 0
	for {
		o.stageMu.Lock()
		batches := o.staged
		o.staged = nil
		if len(batches) == 0 {
			o.staging = false
			o.stageMu.Unlock()
			break
		}
		o.stageMu.Unlock()
		for _, b := range batches {
			plan, perr := planObservations(f.Dims(), b.obs)
			if perr != nil {
				s.met.errors("observe").Add(1)
			} else if resp, aerr := s.applyPlan(f, plan, true); aerr != nil {
				s.met.errors("observe").Add(1)
			} else {
				drainedFolds += len(resp.Folded)
				o.pending += len(b.obs)
			}
			// The applied sequence advances even past a dropped batch (both
			// failure arms are unreachable for plans that validated at
			// staging time): the stream must stay contiguous, and the
			// generation bump below re-bootstraps followers anyway.
			if b.seq > 0 {
				s.repl.appliedSeq.Store(b.seq)
			}
		}
	}

	// The fitter returns to the observes (they take the normal path under mu
	// from here on); refitting stays true until the compaction below is done
	// so a second refit cannot start and race it on the journal.
	o.refitFitter = nil

	var final *core.Model
	if refitOK || drainedFolds > 0 {
		final = m
		if !refitOK || drainedFolds > 0 {
			final = f.Snapshot()
		}
		s.install(final)
	}
	if refitOK {
		// The refit result is not derivable from the journal: followers
		// tailing the old generation must re-bootstrap. (A failed refit
		// whose drain folded rows is journal-derived — no bump.)
		s.repl.bumpGen()
	} else {
		// The drain advanced the applied sequence under the same identity;
		// wake stream waiters so caught-up followers fetch it.
		s.repl.wake()
	}

	// Capture what compaction needs while observes are quiesced (normal-path
	// observes block on mu, staging is closed, so the journal cannot move):
	// a deep copy of the training set and the exact sequence it covers. The
	// heavy work — holdout scoring, model save, snapshot write — then runs
	// off the lock; records appended meanwhile have later sequences and
	// survive the journal rotation.
	var compactX *tensor.Coord
	var covered uint64
	gen := o.gen
	if refitOK && s.dir != nil {
		compactX = f.TrainingSet()
		covered = s.journal.LastSeq()
	}
	o.mu.Unlock()

	if final != nil {
		s.updateHoldout(final)
	}
	if compactX != nil {
		s.compact(final, compactX, covered, gen)
	}

	o.mu.Lock()
	o.refitting = false
	o.refitCancel = nil
	s.met.refitState.Store(refitIdle)
	o.mu.Unlock()

	elapsed := time.Since(t0)
	switch {
	case refitOK:
		s.met.refitLastSecs.Store(math.Float64bits(elapsed.Seconds()))
		s.event(slog.LevelInfo, "refit published", "duration", elapsed,
			"iterations", s.met.refitIter.Load(), "drained_folds", drainedFolds,
			"core_nnz", final.Core.NNZ())
	case errors.Is(refitErr, context.Canceled):
		// The server is closing (or a reload cancelled the compute but lost
		// the ownership race); the model keeps serving as-is.
		s.event(slog.LevelInfo, "refit cancelled", "duration", elapsed)
	default:
		// The inconsistency fix: a failed refit used to bump a counter and
		// say nothing. The fitter keeps serving its pre-refit state.
		s.event(slog.LevelError, "refit failed", "error", refitErr, "duration", elapsed)
	}
}

// install publishes m as the serving snapshot. The empty path records that
// the model was derived in memory (fold-in or refit), not read from a file.
func (s *Server) install(m *core.Model) {
	s.cur.Store(newSnapshot(m, "", s.opts.Workers, s.now()))
}

// --- observation planning ---

type foldGroup struct {
	mode  int
	index int
	obs   []core.Observation
}

type obsPlan struct {
	folds   []foldGroup
	appends []core.Observation
}

// planObservations partitions a request's observations into fold-in groups
// (one per brand-new row, in application order) and plain appends, against a
// simulated copy of dims — no model state is touched. Rules:
//
//   - An observation whose coordinates all address existing (or
//     earlier-folded) rows is an append.
//   - A new row enters as mode's next slice (index == current dim); all the
//     request's observations for it whose other coordinates exist by then
//     form its fold-in group.
//   - Chains are allowed: an observation pairing a new user with a new item
//     defers until one of the two rows is folded, then joins the other's
//     group (or becomes an append if both folds beat it).
//
// Any observation that can never be placed — a gap in the new indices, a
// wrong-order index — fails the whole batch.
func planObservations(dims []int, obs []core.Observation) (*obsPlan, error) {
	n := len(dims)
	sim := append([]int(nil), dims...)
	plan := &obsPlan{}

	remaining := make([]int, 0, len(obs))
	for i, o := range obs {
		if len(o.Index) != n {
			return nil, fmt.Errorf("observation %d: index has %d modes, model has %d", i, len(o.Index), n)
		}
		for k, c := range o.Index {
			if c < 0 {
				return nil, fmt.Errorf("observation %d: negative index %d in mode %d", i, c, k)
			}
		}
		remaining = append(remaining, i)
	}

	inRange := func(idx []int, skipMode int) bool {
		for k, c := range idx {
			if k != skipMode && c >= sim[k] {
				return false
			}
		}
		return true
	}

	for len(remaining) > 0 {
		progress := false

		// Everything fully addressable now is an append.
		next := remaining[:0]
		for _, i := range remaining {
			if inRange(obs[i].Index, -1) {
				plan.appends = append(plan.appends, obs[i])
				progress = true
				continue
			}
			next = append(next, i)
		}
		remaining = next

		// Fold the lowest mode whose next slice has a complete group.
		for mode := 0; mode < n; mode++ {
			var g []core.Observation
			var keep []int
			for _, i := range remaining {
				o := obs[i]
				if o.Index[mode] == sim[mode] && inRange(o.Index, mode) {
					g = append(g, o)
					continue
				}
				keep = append(keep, i)
			}
			if len(g) == 0 {
				continue
			}
			plan.folds = append(plan.folds, foldGroup{mode: mode, index: sim[mode], obs: g})
			sim[mode]++
			remaining = keep
			progress = true
			break
		}

		if !progress {
			i := remaining[0]
			return nil, fmt.Errorf("observation %d: index %v cannot be placed: new rows must extend a mode contiguously (next new slice per mode: %v)",
				i, obs[i].Index, sim)
		}
	}
	return plan, nil
}
