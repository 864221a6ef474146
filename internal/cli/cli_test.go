package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"popelect/internal/sim"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, Defaults{Seed: 1, Trials: 1})
	fs.Bool("v", false, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSpecMigrationConvention pins the one translation between the flag's
// convention (-1 = fidelity default, 0 = isolated) and sim.Spec's (0 =
// fidelity default, negative = isolated).
func TestSpecMigrationConvention(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want float64
	}{
		{[]string{"-shards", "2"}, 0},
		{[]string{"-shards", "2", "-migration", "0"}, -1},
		{[]string{"-shards", "2", "-migration", "0.3"}, 0.3},
	} {
		f := parse(t, tc.args...)
		spec, err := f.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if spec.Migration != tc.want || spec.Shards != 2 {
			t.Errorf("%v: spec %+v, want Migration %g", tc.args, spec, tc.want)
		}
	}
	if _, err := parse(t, "-migration", "0.3").Spec(); err == nil {
		t.Error("-migration without -shards ≥ 2 must be rejected")
	}
}

func TestSpecParsesEngineFlags(t *testing.T) {
	f := parse(t, "-backend", "counts", "-batch", "4096", "-batch-eps", "0.02", "-workers", "3", "-churn", "1e-3")
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Backend != sim.BackendCounts || spec.Batch != (sim.BatchPolicy{Mode: sim.BatchFixed, Len: 4096, Eps: 0.02}) ||
		spec.Workers != 3 || spec.Perturb == nil {
		t.Fatalf("spec %+v", spec)
	}
	for _, bad := range [][]string{{"-backend", "gpu"}, {"-batch", "often"}, {"-gamma", "7"}, {"-bias", "x"}} {
		if _, err := parse(t, bad...).Spec(); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestExclusive(t *testing.T) {
	others := []string{"backend", "trials"}
	f := parse(t, "-v", "-backend", "counts")
	if err := f.Exclusive("v", others...); err == nil || !strings.Contains(err.Error(), "-backend") {
		t.Errorf("-v -backend counts: %v", err)
	}
	// Setting a conflicting flag to its default value drops nothing.
	f = parse(t, "-v", "-backend", "dense", "-trials", "1")
	if err := f.Exclusive("v", others...); err != nil {
		t.Errorf("-v with default-valued flags: %v", err)
	}
	f = parse(t, "-backend", "counts")
	if err := f.Exclusive("v", others...); err != nil {
		t.Errorf("without -v: %v", err)
	}
}
