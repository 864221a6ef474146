package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"popelect/internal/rng"
)

// TrialConfig controls a batch of independent executions: the engine
// Spec every trial runs under, plus the batch's own knobs.
type TrialConfig struct {
	Spec

	// Trials is the number of independent runs.
	Trials int

	// Seed is the base seed; trial t uses PRNG stream (Seed, t).
	Seed uint64

	// Pool caps the number of concurrent runners; 0 means GOMAXPROCS.
	// Results do not depend on it (unlike Spec.Workers, the fan-out
	// inside each engine).
	Pool int

	// CheckpointEvery > 0 snapshots each trial's engine about every that
	// many interactions (at the next scheduling-unit boundary; see
	// Checkpointable.SetCheckpoint) into CheckpointDir, one file per trial
	// (TrialCheckpointPath), written atomically. Requires CheckpointDir.
	CheckpointEvery uint64

	// CheckpointDir is the directory holding per-trial checkpoint files.
	CheckpointDir string

	// Resume restores each trial's engine from its file in CheckpointDir
	// before running; trials whose file does not exist start fresh, so a
	// killed sweep resumes with the same config and finishes byte-identically
	// to an uninterrupted run (the resume-equals-replay law).
	Resume bool
}

// TrialCheckpointPath returns the checkpoint file RunTrials uses for one
// trial index under dir.
func TrialCheckpointPath(dir string, trial int) string {
	return filepath.Join(dir, fmt.Sprintf("trial-%d.ckpt", trial))
}

// TrialProbe attaches one census probe to every trial's engine in
// RunTrialsProbed. Make is called once per trial on the worker goroutine;
// the returned probe fires every Every interactions plus once at the end
// of the trial's Run (Every == 0: end of Run only). Probes observe only
// their own trial, so per-trial sinks (e.g. a stats.Collector per trial,
// allocated up front and indexed by trial) need no locking.
type TrialProbe[S comparable] struct {
	Every uint64
	Make  func(trial int) Probe[S]
}

// RunTrials executes cfg.Trials independent runs of the protocols produced
// by factory (called once per trial, so protocols may be shared or fresh)
// and returns the results ordered by trial index.
//
// Trials are distributed over a bounded worker pool; each trial gets its own
// deterministic PRNG stream, so results are reproducible regardless of the
// number of workers. Configuration problems — an unknown backend, or
// BackendCounts with a protocol that does not implement Enumerable — are
// reported as an error before any worker spawns.
func RunTrials[S comparable, P Protocol[S]](factory func(trial int) P, cfg TrialConfig) ([]Result, error) {
	return RunTrialsProbed[S, P](factory, cfg)
}

// RunTrialsProbed is RunTrials with census probes attached to every
// trial's engine — the bulk-observation entry point: trajectory series are
// recorded per trial (see TrialProbe) and merged afterwards, e.g. with
// stats.AggregateOnGrid.
func RunTrialsProbed[S comparable, P Protocol[S]](factory func(trial int) P, cfg TrialConfig, probes ...TrialProbe[S]) ([]Result, error) {
	if cfg.Trials <= 0 {
		return nil, nil
	}
	// Validate the configuration on the caller's goroutine, before any
	// worker spawns, so misconfiguration surfaces as an error here rather
	// than a panic inside the pool.
	var zero P
	if err := checkSpec[S](zero, cfg.Spec); err != nil {
		return nil, err
	}
	if (cfg.CheckpointEvery > 0 || cfg.Resume) && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("sim: checkpointing/resume requires CheckpointDir")
	}
	if cfg.CheckpointEvery > 0 {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: checkpoint dir: %w", err)
		}
	}
	workers := cfg.Pool
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	results := make([]Result, cfg.Trials)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				res, err := runTrial(factory(t), t, cfg, probes)
				results[t] = res
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("sim: trial %d: %w", t, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for t := 0; t < cfg.Trials; t++ {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	return results, firstErr
}

// runTrial builds, probes and executes trial t.
func runTrial[S comparable, P Protocol[S]](proto P, t int, cfg TrialConfig, probes []TrialProbe[S]) (Result, error) {
	eng, err := Build[S](proto, rng.NewStream(cfg.Seed, uint64(t)), cfg.Spec)
	if err != nil {
		return Result{}, err
	}
	for _, tp := range probes {
		if tp.Make == nil {
			continue
		}
		if err := AddProbe[S](eng, tp.Make(t), tp.Every); err != nil {
			panic(err) // unreachable: every engine implements ProbeTarget[S]
		}
	}
	var ck Checkpoint
	path := TrialCheckpointPath(cfg.CheckpointDir, t)
	if cfg.Resume {
		ck.Resume = path
	}
	if cfg.CheckpointEvery > 0 {
		ck.Path, ck.Every = path, cfg.CheckpointEvery
	}
	res, err := Execute(eng, ck, nil)
	res.Seed = uint64(t)
	return res, err
}

// ParallelTimes extracts the parallel-time measure from a batch of results.
func ParallelTimes(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.ParallelTime()
	}
	return out
}

// Interactions extracts interaction counts from a batch of results.
func Interactions(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Interactions)
	}
	return out
}

// AllConverged reports whether every result converged.
func AllConverged(rs []Result) bool {
	for _, r := range rs {
		if !r.Converged {
			return false
		}
	}
	return true
}

// ConvergedCount returns how many results converged.
func ConvergedCount(rs []Result) int {
	c := 0
	for _, r := range rs {
		if r.Converged {
			c++
		}
	}
	return c
}
