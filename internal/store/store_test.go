package store_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"popelect/internal/sim"
	"popelect/internal/stats"
	"popelect/internal/store"
)

func testSpec() sim.Spec {
	return sim.Spec{Backend: sim.BackendCounts}
}

func testKey() store.Key {
	return store.Key{
		Kind:     "trials",
		Protocol: "gs18",
		N:        1 << 12,
		Trials:   5,
		Seed:     2019,
		Spec:     testSpec().Encode(),
	}
}

func TestKeyHashStableAndSensitive(t *testing.T) {
	k := testKey()
	if k.Hash() != k.Hash() {
		t.Fatal("hash is not deterministic")
	}
	seen := map[string]string{k.Hash(): "base"}
	variants := map[string]store.Key{}
	for name, mut := range map[string]func(*store.Key, *sim.Spec){
		"kind":       func(k *store.Key, _ *sim.Spec) { k.Kind = "series" },
		"protocol":   func(k *store.Key, _ *sim.Spec) { k.Protocol = "core" },
		"n":          func(k *store.Key, _ *sim.Spec) { k.N++ },
		"trials":     func(k *store.Key, _ *sim.Spec) { k.Trials++ },
		"seed":       func(k *store.Key, _ *sim.Spec) { k.Seed++ },
		"budget":     func(_ *store.Key, s *sim.Spec) { s.Budget = 1 },
		"backend":    func(_ *store.Key, s *sim.Spec) { s.Backend = sim.BackendDense },
		"batch":      func(_ *store.Key, s *sim.Spec) { s.Batch = sim.BatchPolicy{Mode: sim.BatchExact} },
		"workers":    func(_ *store.Key, s *sim.Spec) { s.Workers = 8 },
		"shards":     func(_ *store.Key, s *sim.Spec) { s.Shards = 4 },
		"migration":  func(_ *store.Key, s *sim.Spec) { s.Migration = 0.25 },
		"shardEpoch": func(_ *store.Key, s *sim.Spec) { s.ShardEpoch = 1024 },
		"gamma":      func(k *store.Key, _ *sim.Spec) { k.Gamma = 60 },
		"probeEvery": func(k *store.Key, _ *sim.Spec) { k.ProbeEvery = 256 },
		"extra":      func(k *store.Key, _ *sim.Spec) { k.Extra = "bias=0.5" },
	} {
		v, spec := testKey(), testSpec()
		mut(&v, &spec)
		if spec != testSpec() {
			v.Spec = spec.Encode()
		}
		variants[name] = v
	}

	// Every field of the run spec, found by reflection so that a field
	// added later is covered too, must move the hash on its own. Nested
	// structs (the batch policy) are varied field by field.
	var leaves func(t reflect.Type, index []int, path string)
	leaves = func(typ reflect.Type, index []int, path string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			idx := append(append([]int(nil), index...), i)
			if f.Type.Kind() == reflect.Struct {
				leaves(f.Type, idx, path+f.Name+".")
				continue
			}
			spec := testSpec()
			setNonZero(t, reflect.ValueOf(&spec).Elem().FieldByIndex(idx), path+f.Name)
			key := testKey()
			key.Spec = spec.Encode()
			variants["spec."+path+f.Name] = key
		}
	}
	leaves(reflect.TypeOf(sim.Spec{}), nil, "")

	for name, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("changing %q collides with %q", name, prev)
		}
		seen[h] = name
	}

	// The trial pool size is not part of the key: RunTrials results do
	// not depend on it.
	a := sim.TrialConfig{Spec: testSpec(), Pool: 1}
	b := sim.TrialConfig{Spec: testSpec(), Pool: 8}
	ka, kb := testKey(), testKey()
	ka.Spec, kb.Spec = a.Spec.Encode(), b.Spec.Encode()
	if ka.Hash() != kb.Hash() {
		t.Error("the trial pool size changes the store key")
	}
}

// setNonZero stores a value different from the zero value (and from
// testSpec's) into a spec field.
func setNonZero(t *testing.T, f reflect.Value, name string) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString("auto")
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(2)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(0.01)
	case reflect.Interface:
		f.Set(reflect.ValueOf(sim.Churn{LeaveRate: 1e-3}))
	default:
		t.Fatalf("spec field %s: no non-zero value for kind %s", name, f.Kind())
	}
}

// TestKeyDistinguishesAutoEpsilon is the regression test for a stale hit:
// auto mode applies Batch.Eps to its adaptive tier, so two specs that
// differ only there must not share a store entry, and table notes must
// show the ε.
func TestKeyDistinguishesAutoEpsilon(t *testing.T) {
	def := sim.BatchPolicy{Mode: sim.BatchAuto}
	tight := sim.BatchPolicy{Mode: sim.BatchAuto, Eps: 0.01}
	if def.String() == tight.String() {
		t.Errorf("BatchPolicy.String renders auto ε=0.01 as %q, like the default", tight.String())
	}
	a, b := testKey(), testKey()
	a.Spec = sim.Spec{Backend: sim.BackendCounts, Batch: def}.Encode()
	b.Spec = sim.Spec{Backend: sim.BackendCounts, Batch: tight}.Encode()
	if a.Hash() == b.Hash() {
		t.Error("specs differing only in auto-mode ε share a store key")
	}
}

func TestResultsRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()

	if _, ok, err := s.GetResults(k); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	rs := []sim.Result{
		{Converged: true, Interactions: 123456, N: 1 << 12, Leaders: 1, LeaderID: 7, Counts: []int64{1, 4095}, Seed: 0},
		{Converged: false, Interactions: 999, N: 1 << 12, Leaders: 3, LeaderID: -1, Counts: []int64{3, 4093}, Seed: 1},
	}
	if err := s.PutResults(k, rs); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetResults(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rs)
	}
	if h, m := s.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", h, m)
	}

	// A different key misses without touching the stored entry.
	other := k
	other.Seed++
	if _, ok, err := s.GetResults(other); err != nil || ok {
		t.Fatalf("other key: ok=%v err=%v", ok, err)
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	k.Kind = "series"
	k.ProbeEvery = 64

	a := stats.NewSeries("leaders", 0)
	b := stats.NewSeries("classes", 0)
	for i := 0; i < 500; i++ {
		a.Add(uint64(i*64), float64(500-i))
		b.Add(uint64(i*64), float64(i%7)+0.5)
	}
	orig := []*stats.Series{a, b}
	if err := s.PutSeries(k, orig); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetSeries(k)
	if err != nil || !ok {
		t.Fatalf("after put: ok=%v err=%v", ok, err)
	}
	if len(got) != len(orig) {
		t.Fatalf("got %d series, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Name != orig[i].Name {
			t.Fatalf("series %d name %q, want %q", i, got[i].Name, orig[i].Name)
		}
		ws, wv := orig[i].Points()
		gs, gv := got[i].Points()
		if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("series %q points differ after round trip", orig[i].Name)
		}
	}

	// A results lookup against a series entry is a typed error, not a hit.
	if _, _, err := s.GetResults(k); err == nil || !strings.Contains(err.Error(), "no results") {
		t.Fatalf("GetResults on series entry: %v", err)
	}
}

func TestSecondOpenIsHit(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	rs := []sim.Result{{Converged: true, Interactions: 42, N: 8, Leaders: 1, LeaderID: 0, Counts: []int64{1, 7}}}

	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s1.GetResults(k); ok {
		t.Fatal("fresh store should miss")
	}
	if err := s1.PutResults(k, rs); err != nil {
		t.Fatal(err)
	}

	// A fresh Store over the same directory — a new process — hits.
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetResults(k)
	if err != nil || !ok {
		t.Fatalf("second open: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatal("second open returned different results")
	}
	if h, m := s2.Stats(); h != 1 || m != 0 {
		t.Fatalf("second open stats = %d hits, %d misses; want 1, 0", h, m)
	}
}

func TestCorruptEntryIsErrorNotMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.PutResults(k, []sim.Result{{N: 8}}); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetResults(k); err == nil || ok {
		t.Fatalf("corrupt entry: ok=%v err=%v (want error)", ok, err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if err := s.PutResults(k, []sim.Result{{N: 8}}); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loc := regexp.MustCompile(`"version":\d+`).FindIndex(data)
	if loc == nil {
		t.Fatal("could not find version field")
	}
	tampered := string(data[:loc[0]]) + `"version":99` + string(data[loc[1]:])
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetResults(k); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("tampered version: %v", err)
	}
}
