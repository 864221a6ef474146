package sim

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"popelect/internal/rng"
)

// Spec is the engine configuration that decides a run's trajectory: which
// engine runs, how it batches and fans out, its budget, its state
// accounting and what perturbs it. Protocol, population size, PRNG stream
// and Spec together determine a run byte for byte (the determinism
// contract), which is why the result store keys on Encode. The zero value
// is the dense backend with every default.
//
// Every driver builds its engines from a Spec through Build: RunTrials
// (TrialConfig embeds one), the popelect options (thin setters on one),
// the experiments (Config embeds one) and, through the shared flag binder,
// the CLIs.
type Spec struct {
	// Backend selects the engine: BackendDense (also the empty value),
	// BackendCounts (requires an Enumerable protocol) or BackendAuto.
	Backend Backend

	// Batch selects the counts backend's batch scheduling policy, ε
	// included; the zero value is BatchAuto. The dense backend ignores it.
	Batch BatchPolicy

	// Workers caps the counts engine's in-batch sampling shards (see
	// CountsEngine.Workers and its determinism contract); 0 or 1 keeps the
	// serial path. On the sharded engine it is the per-shard fan-out. The
	// dense backend ignores it.
	Workers int

	// Shards ≥ 2 runs the sharded counts engine with that many
	// sub-censuses (see ShardedCountsEngine); 0 or 1 keeps a single
	// engine. Requires an Enumerable protocol and a Backend other than an
	// explicit BackendDense, which cannot shard.
	Shards int

	// Migration is the sharded engine's λ (per-agent per-epoch migration
	// probability): 0 keeps the fidelity default (DefaultMigrationRate), a
	// positive value sets λ, and a negative value isolates the shards (no
	// migration at all). Ignored when Shards < 2.
	Migration float64

	// ShardEpoch overrides the sharded engine's interactions per epoch
	// (0 = DefaultShardEpoch). Ignored when Shards < 2.
	ShardEpoch uint64

	// Budget bounds Run's interaction count; 0 means DefaultBudget(n).
	Budget uint64

	// TrackStates enables distinct-state counting on the dense backend
	// (the counts backend tracks distinct states inherently).
	TrackStates bool

	// Perturb attaches a perturbation (churn, corruption, scheduler bias —
	// see Perturbation and Combine) before the run. Attachment constraints
	// are backend-specific and surface as Build errors: the dense backend
	// needs an Enumerable protocol, the sharded backend rejects bias
	// weights. Nil runs unperturbed.
	Perturb Perturbation
}

// Encode renders the spec canonically: every field in declaration order as
// Name=value, nested structs in braces, the perturbation by its
// Fingerprint. It walks the struct by reflection, so a field added to Spec
// is part of the encoding — and of every store key built from it — without
// anyone remembering to list it. A field kind the walk cannot render
// deterministically panics.
func (s Spec) Encode() string {
	var b strings.Builder
	encodeStruct(&b, reflect.ValueOf(s))
	return b.String()
}

func encodeStruct(b *strings.Builder, v reflect.Value) {
	t := v.Type()
	b.WriteByte('{')
	for i := range t.NumField() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(t.Field(i).Name)
		b.WriteByte('=')
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Struct:
			encodeStruct(b, f)
		case reflect.Interface:
			if p, ok := f.Interface().(Perturbation); ok {
				b.WriteString(strconv.Quote(p.Fingerprint()))
			} else if !f.IsNil() {
				panic(fmt.Sprintf("sim: cannot encode %s field %s", t.Name(), t.Field(i).Name))
			}
		case reflect.String:
			b.WriteString(strconv.Quote(f.String()))
		case reflect.Bool:
			b.WriteString(strconv.FormatBool(f.Bool()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b.WriteString(strconv.FormatInt(f.Int(), 10))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b.WriteString(strconv.FormatUint(f.Uint(), 10))
		case reflect.Float32, reflect.Float64:
			b.WriteString(strconv.FormatFloat(f.Float(), 'g', -1, 64))
		default:
			panic(fmt.Sprintf("sim: cannot encode %s field %s of kind %s", t.Name(), t.Field(i).Name, f.Kind()))
		}
	}
	b.WriteByte('}')
}

// checkSpec validates spec against the protocol value's capabilities
// without building anything (proto may be a typed nil: only its type is
// consulted).
func checkSpec[S comparable, P Protocol[S]](proto P, spec Spec) error {
	switch spec.Backend {
	case "", BackendDense, BackendCounts, BackendAuto:
	default:
		return fmt.Errorf("sim: unknown backend %q (want dense, counts or auto)", spec.Backend)
	}
	if spec.Shards >= 2 && spec.Backend == BackendDense {
		return fmt.Errorf("sim: sharded populations need a counts backend, not %q", spec.Backend)
	}
	if _, ok := any(proto).(Enumerable[S]); !ok {
		if spec.Shards >= 2 {
			return fmt.Errorf("sim: sharded populations require protocol type %T to implement Enumerable", proto)
		}
		if spec.Backend == BackendCounts {
			return fmt.Errorf("sim: backend counts requires protocol type %T to implement Enumerable (finite state-space enumeration)", proto)
		}
	}
	return nil
}

// Build constructs the engine spec selects for proto over src, configures
// it and attaches the perturbation. It is the one place a Spec turns into
// an engine; every error a spec can cause surfaces here.
func Build[S comparable, P Protocol[S]](proto P, src *rng.Source, spec Spec) (Engine, error) {
	if err := checkSpec[S](proto, spec); err != nil {
		return nil, err
	}
	var eng Engine
	if spec.Shards >= 2 {
		e := NewShardedCountsEngine[S](any(proto).(Enumerable[S]), src, spec.Shards)
		if spec.Migration != 0 {
			e.Migration = max(spec.Migration, 0)
		}
		if spec.ShardEpoch != 0 {
			e.EpochLen = spec.ShardEpoch
		}
		eng = e
	} else {
		var err error
		if eng, err = NewEngine[S, P](proto, src, spec.Backend); err != nil {
			return nil, err
		}
	}
	eng.SetBudget(spec.Budget)
	if st, ok := eng.(StateTracker); ok {
		st.SetTrackStates(spec.TrackStates)
	}
	if bc, ok := eng.(BatchConfigurable); ok {
		bc.SetBatchPolicy(spec.Batch)
	}
	// 0 and 1 both select the serial path; the field stays 0 for both, so
	// their checkpoints (which record it) interchange.
	if wc, ok := eng.(WorkerConfigurable); ok && spec.Workers > 1 {
		wc.SetWorkers(spec.Workers)
	}
	if spec.Perturb != nil {
		pe, ok := eng.(Perturbable)
		if !ok {
			return nil, fmt.Errorf("sim: engine %T does not support perturbations", eng)
		}
		if err := pe.SetPerturbation(spec.Perturb); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// Checkpoint names a run's snapshot files (see Checkpointable).
type Checkpoint struct {
	// Resume restores the engine from this file before running. Empty, or
	// a file that does not exist yet, starts the run fresh — so a killed
	// run relaunched with the same settings finishes byte-identically to
	// an uninterrupted one (the resume-equals-replay law).
	Resume string

	// Path receives an atomic snapshot about every Every interactions, at
	// the next scheduling-unit boundary. Empty disables snapshots; a
	// non-empty Path needs a positive Every.
	Path  string
	Every uint64
}

// Execute runs a built engine to completion: resume from ck.Resume, arm
// the periodic snapshots, call start (when non-nil) on the restored
// engine, Run, and report the first snapshot write error. Probes must be
// attached before Execute: a snapshot restores only into an engine
// carrying the same probe set.
func Execute(eng Engine, ck Checkpoint, start func() error) (Result, error) {
	var c Checkpointable
	if ck.Resume != "" || ck.Path != "" {
		if ck.Path != "" && ck.Every == 0 {
			return Result{}, fmt.Errorf("sim: checkpoint %s needs a positive interval", ck.Path)
		}
		var ok bool
		if c, ok = eng.(Checkpointable); !ok {
			return Result{}, fmt.Errorf("sim: engine %T does not support checkpointing", eng)
		}
	}
	if ck.Resume != "" {
		data, err := ReadCheckpointFile(ck.Resume)
		switch {
		case err == nil:
			if err := c.Restore(data); err != nil {
				return Result{}, fmt.Errorf("sim: resume from %s: %w", ck.Resume, err)
			}
		case !os.IsNotExist(err):
			return Result{}, fmt.Errorf("sim: resume: %w", err)
		}
	}
	if ck.Path != "" {
		c.SetCheckpoint(ck.Every, FileSink(ck.Path))
	}
	if start != nil {
		if err := start(); err != nil {
			return Result{}, err
		}
	}
	res := eng.Run()
	if c != nil {
		if err := c.CheckpointErr(); err != nil {
			return res, err
		}
	}
	return res, nil
}
