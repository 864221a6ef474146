package sim

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"popelect/internal/rng"
)

// TestBuildZeroSpecIsNewEngine pins that a spec carrying only a backend
// builds exactly the engine NewEngine does: the defaults Build applies are
// the engines' own.
func TestBuildZeroSpecIsNewEngine(t *testing.T) {
	p := enumDuel{duel{300}}
	for _, b := range []Backend{"", BackendDense, BackendCounts, BackendAuto} {
		ref, err := NewEngine[uint32](p, rng.New(5), b)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := Build[uint32](p, rng.New(5), Spec{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		if want, got := ref.Run(), eng.Run(); !reflect.DeepEqual(want, got) {
			t.Fatalf("backend %q: Build run %+v, NewEngine run %+v", b, got, want)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Backend: "bogus"}, "unknown backend"},
		{Spec{Backend: BackendDense, Shards: 2}, "counts backend"},
		{Spec{Backend: BackendCounts}, "Enumerable"},
		{Spec{Shards: 2}, "Enumerable"},
	} {
		_, err := Build[uint32](duel{10}, rng.New(1), tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an error mentioning %q", tc.spec, err, tc.want)
		}
	}
}

// TestExecuteResumeEqualsReplay runs the shared per-run sequence twice
// against one file, the first time stopped early by the budget: the
// resumed run must finish exactly like an uninterrupted one with the same
// snapshot cadence. (The cadence is part of the comparison: in exact mode
// a snapshot boundary cuts the silent-step skip short, so an armed run
// consumes randomness differently from an unarmed one.)
func TestExecuteResumeEqualsReplay(t *testing.T) {
	p := enumDuel{duel{400}}
	spec := Spec{Backend: BackendCounts}
	dir := t.TempDir()
	want, err := Execute(mustBuild(t, p, spec), Checkpoint{Path: filepath.Join(dir, "ref.ckpt"), Every: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.ckpt")
	ck := Checkpoint{Resume: path, Path: path, Every: 50}
	short := spec
	short.Budget = 200
	if _, err := Execute(mustBuild(t, p, short), ck, nil); err != nil {
		t.Fatal(err)
	}
	started := false
	got, err := Execute(mustBuild(t, p, spec), ck, func() error { started = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !started || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run %+v (start called: %v), uninterrupted %+v", got, started, want)
	}
	if _, err := Execute(mustBuild(t, p, spec), Checkpoint{Path: path}, nil); err == nil {
		t.Fatal("a checkpoint path without an interval must be rejected")
	}
}

func mustBuild(t *testing.T, p enumDuel, spec Spec) Engine {
	t.Helper()
	eng, err := Build[uint32](p, rng.New(9), spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
