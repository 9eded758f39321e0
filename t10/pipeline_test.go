package t10

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/dtype"
	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/plancache"
)

// planFingerprint renders every plan selection of an executable — the
// idle and active compute-shift plan of each operator — so two compiles
// can be compared bit-for-bit.
func planFingerprint(e *Executable) string {
	out := ""
	for i := range e.Schedule.Assignments {
		a := &e.Schedule.Assignments[i]
		out += fmt.Sprintf("op%d %s\nidle %v %s\nactive %v %s\n",
			i, e.Model.Ops[i].Name,
			a.Idle.Est, a.Idle.Plan.String(),
			a.Active.Est, a.Active.Plan.String())
	}
	return out
}

// TestParallelCompilationMatchesSequential is the pipeline's
// equivalence gate: the concurrent, cache-backed path must select
// bit-identical plans to the Workers=1 sequential reference, warm or
// cold.
func TestParallelCompilationMatchesSequential(t *testing.T) {
	spec := device.IPUMK2()

	seqOpts := DefaultOptions()
	seqOpts.Workers = 1
	seq, err := New(spec, seqOpts)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := DefaultOptions() // Workers=0 → GOMAXPROCS
	par, err := New(spec, parOpts)
	if err != nil {
		t.Fatal(err)
	}

	m := models.BERT(8)
	seqExe, err := seq.Compile(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	coldExe, err := par.Compile(context.Background(), models.BERT(8))
	if err != nil {
		t.Fatal(err)
	}
	warmExe, err := par.Compile(context.Background(), models.BERT(8)) // fully cached
	if err != nil {
		t.Fatal(err)
	}

	want := planFingerprint(seqExe)
	if got := planFingerprint(coldExe); got != want {
		t.Error("parallel compilation selected different plans than sequential")
	}
	if got := planFingerprint(warmExe); got != want {
		t.Error("cached compilation selected different plans than sequential")
	}
	if warmExe.CompileTime > coldExe.CompileTime {
		t.Logf("warm compile (%s) not faster than cold (%s)",
			warmExe.CompileTime, coldExe.CompileTime)
	}
}

// TestRepeatedCompileHitsCache mirrors the serving scenario: compiling
// the same model twice must answer every repeated encoder operator
// from the plan cache.
func TestRepeatedCompileHitsCache(t *testing.T) {
	c, err := New(device.IPUMK2(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(context.Background(), models.BERT(8)); err != nil {
		t.Fatal(err)
	}
	before := c.CacheStats()
	m := models.BERT(8)
	if _, err := c.Compile(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	after := c.CacheStats()
	hits := after.Hits - before.Hits
	if hits < int64(len(m.Ops)) {
		t.Errorf("second compile produced %d cache hits for %d ops", hits, len(m.Ops))
	}
	if after.Misses != before.Misses {
		t.Errorf("second compile missed the cache %d times", after.Misses-before.Misses)
	}
}

// TestSharedCacheAcrossCompilers is the harness/serving configuration:
// two compilers over one cache, where the second never searches.
func TestSharedCacheAcrossCompilers(t *testing.T) {
	shared := plancache.New(plancache.Options{})
	opts := DefaultOptions()
	opts.Cache = shared

	c1, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Compile(context.Background(), models.BERT(1)); err != nil {
		t.Fatal(err)
	}
	misses := shared.Stats().Misses

	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compile(context.Background(), models.BERT(1)); err != nil {
		t.Fatal(err)
	}
	if got := shared.Stats().Misses; got != misses {
		t.Errorf("second compiler missed the shared cache %d times", got-misses)
	}
}

// TestDiskCacheAcrossCompilerInstances simulates two t10c invocations
// sharing a cache dir: the second compiler (fresh in-memory cache)
// answers from disk and selects identical plans.
func TestDiskCacheAcrossCompilerInstances(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.CacheDir = dir

	c1, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c1.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.CacheStats(); st.DiskWrites == 0 {
		t.Fatal("first compile wrote nothing to the disk layer")
	}

	c2, err := New(device.IPUMK2(), opts)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Compile(context.Background(), models.BERT(1))
	if err != nil {
		t.Fatal(err)
	}
	st := c2.CacheStats()
	if st.DiskHits == 0 {
		t.Error("second compiler never hit the disk layer")
	}
	if planFingerprint(e1) != planFingerprint(e2) {
		t.Error("disk-cached compile selected different plans")
	}
}

// TestNewCacheOptions pins the one way to configure a compiler's plan
// cache: Options.Cache excludes the CacheDir/CacheSalt shorthand, and
// each of the two on its own serves a second compiler from the disk
// layer the first one wrote, under the configured salt.
func TestNewCacheOptions(t *testing.T) {
	spec := device.IPUMK2().Subset(64)
	e := expr.MatMul("mm", 256, 256, 512, dtype.FP16)
	for _, tc := range []struct {
		name             string
		cache, dir, salt bool
	}{
		{"Cache+CacheDir", true, true, false},
		{"Cache+CacheSalt", true, false, true},
		{"Cache+CacheDir+CacheSalt", true, true, true},
		{"Cache", true, false, false},
		{"CacheDir+CacheSalt", false, true, true},
	} {
		wantErr := tc.cache && (tc.dir || tc.salt)
		opts := func(dir, salt string) Options {
			o := DefaultOptions()
			if tc.cache {
				o.Cache = plancache.New(plancache.Options{Dir: dir, Salt: []byte(salt)})
			}
			if tc.dir {
				o.CacheDir = dir
			}
			if tc.salt {
				o.CacheSalt = []byte(salt)
			}
			return o
		}
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, err := New(spec, opts(dir, "s1"))
			if wantErr {
				if err == nil {
					t.Fatal("New accepted Cache together with CacheDir/CacheSalt")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			cold, err := c1.Search(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if st := c1.CacheStats(); st.DiskWrites != 1 {
				t.Fatalf("first compiler wrote %d disk records, want 1", st.DiskWrites)
			}
			// a second compiler over the same directory and salt (with a
			// fresh memory tier) answers from disk with identical plans
			c2, err := New(spec, opts(dir, "s1"))
			if err != nil {
				t.Fatal(err)
			}
			warm, err := c2.Search(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if st := c2.CacheStats(); st.DiskHits != 1 {
				t.Fatalf("second compiler: %d disk hits, want 1", st.DiskHits)
			}
			if len(warm.Pareto) != len(cold.Pareto) {
				t.Fatalf("disk hit: %d Pareto plans, want %d", len(warm.Pareto), len(cold.Pareto))
			}
			for i := range cold.Pareto {
				if warm.Pareto[i].Plan.String() != cold.Pareto[i].Plan.String() || warm.Pareto[i].Est != cold.Pareto[i].Est {
					t.Fatalf("disk hit: Pareto plan %d differs", i)
				}
			}
			// the salt reached the cache: another salt rejects the record
			c3, err := New(spec, opts(dir, "s2"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c3.Search(context.Background(), e); err != nil {
				t.Fatal(err)
			}
			if st := c3.CacheStats(); st.DiskHits != 0 || st.DiskRejects != 1 {
				t.Fatalf("other salt: %d disk hits, %d rejects; want 0 and 1", st.DiskHits, st.DiskRejects)
			}
		})
	}
}
