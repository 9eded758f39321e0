package exper

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

var (
	hOnce sync.Once
	hh    *Harness
)

func harness(t *testing.T) *Harness {
	t.Helper()
	hOnce.Do(func() {
		h, err := New()
		if err != nil {
			panic(err)
		}
		h.Quick = true
		hh = h
	})
	return hh
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "x", Cols: []string{"a", "bb"}}
	tab.Add("1", 2.5)
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x ==", "a", "bb", "2.500", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "table3", "fig2", "fig8", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"fig22", "fig23", "fig24",
	}
	have := make(map[string]bool)
	for _, n := range Experiments() {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s not registered", w)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	h := harness(t)
	if err := h.Run("fig999", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTables(t *testing.T) {
	h := harness(t)
	for _, name := range []string{"table2", "table3", "fig8", "fig18"} {
		var buf bytes.Buffer
		if err := h.Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

// TestFig18CompleteColumn pins Fig 18's "Complete" column digit for
// digit. The estimator is deterministic (fixed sample seed); these are
// the values it printed when every cold search computed it, before the
// count moved to the on-demand Searcher.CompleteSpace.
func TestFig18CompleteColumn(t *testing.T) {
	tab, err := harness(t).Fig18()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Conv (ResNet-256)":  "11031029395740428",
		"MatMul (BERT-16)":   "10963956290027",
		"GatherV2 (BERT-16)": "107905392794664",
		"Pool (ResNet-256)":  "51380224",
		"Sum (ViT-128)":      "19365888",
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("Fig 18 has %d rows, want %d", len(tab.Rows), len(want))
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; !ok || row[1] != w {
			t.Errorf("%s: complete = %s, want %s", row[0], row[1], w)
		}
	}
}

func TestFig2(t *testing.T) {
	h := harness(t)
	tab, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("fig2 rows = %d, want 5 representative ops", len(tab.Rows))
	}
}

func TestFig20TraceHasChosenPoint(t *testing.T) {
	h := harness(t)
	tab, err := h.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		if row[len(row)-1] == "★" {
			found = true
		}
	}
	if !found {
		t.Error("no chosen point marked on the trace")
	}
}

func TestFig23LLM(t *testing.T) {
	if testing.Short() {
		t.Skip("LLM sweep in -short mode")
	}
	h := harness(t)
	tab, err := h.Fig23()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < len([]string{"a"})*7 {
		t.Errorf("fig23 rows = %d", len(tab.Rows))
	}
}
