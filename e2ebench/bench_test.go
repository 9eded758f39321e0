package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/t10"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself as the in-process workload child.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			if _, err := run(os.Args[1:]); err != nil {
				os.Stderr.WriteString(err.Error() + "\n")
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// TestColdZooCountersRepeat pins the property the search-counter
// metrics rest on: at Workers=1 a fresh compiler's search counters for
// every cold-zoo request repeat exactly from one pass to the next.
func TestColdZooCountersRepeat(t *testing.T) {
	type counts struct{ filtered, priced, pruned, seeded, cutSubtrees, cutLeaves int }
	pass := func() map[string]counts {
		out := map[string]counts{}
		for _, r := range zoo() {
			c, err := newCompiler(1, r.Fusion, "")
			if err != nil {
				t.Fatal(err)
			}
			m, err := buildModel(r)
			if err != nil {
				t.Fatal(err)
			}
			var tel t10.Telemetry
			full := t10.WithTelemetry(t10.TelemetryFull)
			if r.Kind == kindSharded {
				sr, err := c.CompileShardedWithResult(context.Background(), m, r.Chips, full)
				if err != nil {
					t.Fatal(err)
				}
				tel = sr.Telemetry
			} else {
				cr, err := c.CompileWithResult(context.Background(), m, full)
				if err != nil {
					t.Fatal(err)
				}
				tel = cr.Telemetry
			}
			if tel.Priced == 0 {
				t.Fatalf("%s: no priced candidates on a fresh compiler", r.key())
			}
			out[r.key()] = counts{tel.Filtered, tel.Priced, tel.Pruned, tel.Seeded, tel.CutSubtrees, tel.CutLeaves}
		}
		return out
	}
	first, second := pass(), pass()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("Workers=1 search counters changed between passes:\n%v\n%v", first, second)
	}
}

// TestSeedChangesInputs checks that the generated inputs are a function
// of the seed, and that the seed reaches each of them: the warm-serve
// request order, the churn shapes and the oracle's operators.
func TestSeedChangesInputs(t *testing.T) {
	if !reflect.DeepEqual(newChurnStream(3, 1).deck(), newChurnStream(3, 1).deck()) {
		t.Error("churn-serve requests are not a function of the seed")
	}
	order := func(seed int64) []request {
		return (&deckStream{d: warmServeDeck(), rng: rand.New(rand.NewSource(seed))}).deck()
	}
	if reflect.DeepEqual(order(1), order(2)) {
		t.Error("warm-serve request order does not depend on the seed")
	}
	if reflect.DeepEqual(newChurnStream(1, 0).deck(), newChurnStream(2, 0).deck()) {
		t.Error("churn-serve shapes do not depend on the seed")
	}
	a, b := newChurnStream(1, 0), newChurnStream(1, 1)
	for i := 0; i < 200; i++ {
		a.novel()
		b.novel()
	}
	for k := range a.seen {
		if b.seen[k] {
			t.Fatalf("both churn clients sent %s as a novel shape", k)
		}
	}
	sigs := func(seed int64) []string {
		var out []string
		for _, e := range oracleOps(seed) {
			out = append(out, e.Signature())
		}
		return out
	}
	if reflect.DeepEqual(sigs(1), sigs(2)) {
		t.Error("oracle operators do not depend on the seed")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricNames runs every workload briefly, untraced and traced, on
// two seeds: every run must pass its output checks, print exactly the
// metrics BENCHMARK.json names with their units, and print the same
// names whatever the seed.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range bj.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[1][m.Name] = m.Unit
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(sortedCopy(workloads), names) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}

	dir := t.TempDir()
	serveBin := filepath.Join(dir, "t10serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "repro/cmd/t10serve").CombinedOutput(); err != nil {
		t.Fatalf("build t10serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			for _, seed := range []string{"1", "2"} {
				res, err := run([]string{"-workload", w, "-seed", seed, "-seconds", "0.4",
					"-trace", strconv.Itoa(trace), "-t10serve", serveBin, "-work", dir})
				if err != nil {
					t.Fatalf("%s trace=%d seed=%s: %v", w, trace, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%d seed=%s: %d of %d requests failed", w, trace, seed, res.Failed, res.Attempted)
				}
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, want[trace]) {
					t.Fatalf("%s trace=%d seed=%s: metrics %v, BENCHMARK.json names %v", w, trace, seed, got, want[trace])
				}
			}
		}
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
