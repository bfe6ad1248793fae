package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"beyondft/internal/sim"
	"beyondft/internal/topology"
	"beyondft/internal/workload"
)

func TestTable1Rows(t *testing.T) {
	f := Table1CostModel()
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	dollars := f.Series[0].Y
	if dollars[0] != 215 || dollars[1] != 370 {
		t.Fatalf("cost rows wrong: %v", dollars)
	}
	deltas := f.Series[1].Y
	for i := 1; i < len(deltas); i++ {
		if deltas[i] < 1.45 {
			t.Fatalf("dynamic delta %v below the paper's 1.5 floor", deltas[i])
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	f := Figure2TP()
	tp := f.Series[0]
	// TP is non-increasing in x and hits 1 at small x.
	if tp.Y[0] != 1 {
		t.Fatalf("TP at x=0.02 should be 1, got %v", tp.Y[0])
	}
	for i := 1; i < len(tp.Y); i++ {
		if tp.Y[i] > tp.Y[i-1]+1e-12 {
			t.Fatalf("TP curve increased at %d", i)
		}
	}
	ft := f.Series[1]
	if ft.Y[len(ft.Y)-1] >= tp.Y[len(tp.Y)-1] {
		// At x=1 both equal alpha.
		if math.Abs(ft.Y[len(ft.Y)-1]-tp.Y[len(tp.Y)-1]) > 1e-9 {
			t.Fatalf("fat-tree above TP at x=1")
		}
	}
}

func TestFigure3Counts(t *testing.T) {
	f := DefaultConfig().Figure3Xpander()
	y := f.Series[0].Y
	if y[0] != 486 || y[1] != 3402 || y[2] != 18 || y[3] != 27 {
		t.Fatalf("Fig.3 structure rows wrong: %v", y)
	}
	// 18 meta-nodes -> 153 bundles of 27 cables each.
	if y[4] != 153 || y[5] != 27 {
		t.Fatalf("cable bundling rows wrong: %v", y)
	}
}

func TestFigure4ToyReproducesPaper(t *testing.T) {
	f := DefaultConfig().Figure4Toy()
	y := f.Series[0].Y
	if math.Abs(y[0]-0.8) > 1e-9 {
		t.Fatalf("restricted bound = %v, want 0.8", y[0])
	}
	if y[1] != 1 {
		t.Fatalf("unrestricted = %v, want 1", y[1])
	}
	// Both equal-cost static networks achieve (near-)full throughput.
	if y[2] < 0.95 || y[3] < 0.95 {
		t.Fatalf("static networks should achieve ~full throughput: %v", y)
	}
}

func TestFigure5aCoreClaims(t *testing.T) {
	f := DefaultConfig().Figure5a()
	checkFigures(t, []*Figure{f}, []string{"fig5a"}, 4)
	series := map[string][]float64{}
	for _, s := range f.Series {
		series[s.Label] = s.Y
	}
	jf := series["jellyfish"]
	tp := series["throughput-prop"]
	un := series["unrestricted-dyn"]
	re := series["restricted-dyn"]
	if jf == nil || tp == nil || un == nil || re == nil {
		t.Fatalf("missing series: %v", f.Series)
	}
	n := len(jf)
	// (1) Jellyfish never exceeds TP by more than FPTAS noise (Thm 2.1).
	for i := range jf {
		if jf[i] > tp[i]+0.08 {
			t.Fatalf("jellyfish exceeds TP at x=%v: %v > %v", f.Series[0].X[i], jf[i], tp[i])
		}
	}
	// (2) At the smallest fraction, the static network beats or matches the
	// equal-cost unrestricted dynamic model — the paper's headline.
	if jf[0] < un[0]-0.05 {
		t.Fatalf("static %v below unrestricted dynamic %v in the skewed regime", jf[0], un[0])
	}
	// (3) The restricted model is far below the static network everywhere
	// past the smallest fractions.
	if re[n-1] > jf[n-1] {
		t.Fatalf("restricted model should be worst at x=1: %v vs %v", re[n-1], jf[n-1])
	}
}

func TestRacksForServerTarget(t *testing.T) {
	c := DefaultConfig()
	ft := topology.NewFatTree(4)
	racks := racksForServerTarget(&ft.Topology, 7, true, c.rng(1))
	total := 0
	for _, r := range racks {
		total += ft.Servers[r]
	}
	if total < 7 {
		t.Fatalf("racks host %d servers, want >= 7", total)
	}
	if len(racks) < 2 {
		t.Fatalf("need at least two racks")
	}
	// Consecutive selection takes the first edge switches.
	if racks[0] != ft.EdgeBase[0] {
		t.Fatalf("consecutive selection should start at the first ToR")
	}
}

func TestFigurePrinting(t *testing.T) {
	f := &Figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	f.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t: test ==", "note: hello", "a", "3", "4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSVBasic(t *testing.T) {
	f := &Figure{
		XLabel: "x",
		Series: []Series{
			{Label: "a", X: []float64{1, 2.5}, Y: []float64{3, 0.125}},
			{Label: "b", X: []float64{1, 2.5}, Y: []float64{4, 5}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := "x,a,b\n1,3,4\n2.5,0.125,5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteCSVEmptyFigure(t *testing.T) {
	f := &Figure{XLabel: "x"}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV on empty figure: %v", err)
	}
	// No series: just the x-label header row, no data rows.
	if buf.String() != "x\n" {
		t.Fatalf("empty-figure csv = %q, want header only", buf.String())
	}
}

func TestWriteCSVUnequalSeriesLengths(t *testing.T) {
	// The second series is shorter than the x axis: missing cells must be
	// emitted as empty fields, not dropped or shifted.
	f := &Figure{
		XLabel: "x",
		Series: []Series{
			{Label: "long", X: []float64{1, 2, 3}, Y: []float64{10, 20, 30}},
			{Label: "short", X: []float64{1, 2, 3}, Y: []float64{7}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := "x,long,short\n1,10,7\n2,20,\n3,30,\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteCSVQuotesSpecialLabels(t *testing.T) {
	// Labels containing commas and quotes must survive a CSV round trip.
	f := &Figure{
		XLabel: "x, with comma",
		Series: []Series{
			{Label: `say "hi"`, X: []float64{1}, Y: []float64{2}},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if rows[0][0] != "x, with comma" || rows[0][1] != `say "hi"` {
		t.Fatalf("header round trip mangled: %q", rows[0])
	}
	if rows[1][0] != "1" || rows[1][1] != "2" {
		t.Fatalf("data row mangled: %q", rows[1])
	}
}

func TestPacketFigureDriverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level driver smoke test is slow")
	}
	// A heavily trimmed Fig. 7b-style run: verifies the driver plumbing
	// (topologies, pair dists, lambda scaling, metric extraction).
	c := DefaultConfig()
	c.MeasureStart = 5 * sim.Millisecond
	c.MeasureEnd = 25 * sim.Millisecond
	c.MaxSimTime = 200 * sim.Millisecond
	ft := c.BaselineFatTree()
	pairs := workload.NewTwoRacks(&ft.Topology, ft.EdgeBase[0], ft.EdgeBase[0]+1, 2)
	res := c.runExperiment(&ft.Topology, 0, 0, pairs, workload.PFabricWebSearch(), 500, 1)
	if res.MeasuredFlows == 0 {
		t.Fatalf("no measured flows")
	}
	if res.CompletedFlows == 0 {
		t.Fatalf("no completed flows")
	}
	if math.IsNaN(res.AvgFCTMs) {
		t.Fatalf("no FCT stats")
	}
}

func TestConfigScales(t *testing.T) {
	small := DefaultConfig()
	full := PaperConfig()
	if small.FatTreeK() != 8 || full.FatTreeK() != 16 {
		t.Fatalf("fat-tree scaling wrong: %d / %d", small.FatTreeK(), full.FatTreeK())
	}
	xp := small.CheapXpander()
	ft := small.BaselineFatTree()
	ratio := float64(xp.TotalPortsUsed()) / float64(ft.TotalPortsUsed())
	if ratio < 0.60 || ratio > 0.72 {
		t.Fatalf("scaled Xpander cost ratio = %.2f, want ~2/3", ratio)
	}
}

func TestFigure5AltEqualCost(t *testing.T) {
	f := DefaultConfig().Figure5Alt()
	checkFigures(t, []*Figure{f}, []string{"fig5alt"}, 3)
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	// §5's claim: with delta x the resources, Jellyfish achieves (near-)full
	// throughput in the regime of interest (x <= ~0.35).
	for _, s := range f.Series[:2] {
		for i, x := range s.X {
			if x <= 0.3 && s.Y[i] < 0.95 {
				t.Fatalf("%s at x=%.2f: throughput %.3f, want ~1.0", s.Label, x, s.Y[i])
			}
		}
	}
}

func TestExtensionFailureResilienceShape(t *testing.T) {
	f := DefaultConfig().ExtensionFailureResilience()
	checkFigures(t, []*Figure{f}, []string{"fig-failures"}, 2)
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	for _, s := range f.Series {
		if s.Y[0] != 1 {
			t.Fatalf("%s baseline should be 1.0, got %v", s.Label, s.Y[0])
		}
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Fatalf("%s: throughput should degrade with failures", s.Label)
		}
	}
	// The expander degrades more gracefully at moderate failure rates.
	ft, xp := f.Series[0].Y, f.Series[1].Y
	if xp[1] < ft[1] {
		t.Fatalf("expander (%.3f) should retain more than the fat-tree (%.3f) at 5%% failures",
			xp[1], ft[1])
	}
}
