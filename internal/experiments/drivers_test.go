package experiments

import (
	"context"
	"math"
	"testing"

	"beyondft/internal/sim"
)

// smokeConfig shrinks every knob a driver honours: a 2 ms measurement
// window (keepWindows stops the drivers from stretching it back out) and a
// loose GK epsilon for the fluid figures. The point of these tests is to
// execute every driver end-to-end and check figure structure, not numbers —
// the numeric contracts live in internal/validate and the paper-scale runs.
func smokeConfig() Config {
	c := DefaultConfig()
	c.Epsilon = 0.35
	c.MeasureStart = 0
	c.MeasureEnd = 2 * sim.Millisecond
	c.MaxSimTime = 2 * sim.Millisecond
	c.keepWindows = true
	return c
}

// checkFigures asserts the structural contract every driver promises: the
// expected panel IDs in order, at least minSeries labelled series per panel,
// and every series with aligned X/Y vectors free of infinities (NaN is legal:
// a 2 ms window can leave a percentile undefined).
func checkFigures(t *testing.T, figs []*Figure, wantIDs []string, minSeries int) {
	t.Helper()
	if len(figs) != len(wantIDs) {
		t.Fatalf("got %d figures, want %d (%v)", len(figs), len(wantIDs), wantIDs)
	}
	for i, f := range figs {
		if f.ID != wantIDs[i] {
			t.Errorf("figure %d: ID %q, want %q", i, f.ID, wantIDs[i])
		}
		if len(f.Series) < minSeries {
			t.Errorf("%s: %d series, want >= %d", f.ID, len(f.Series), minSeries)
		}
		for _, s := range f.Series {
			if s.Label == "" {
				t.Errorf("%s: unlabelled series", f.ID)
			}
			if len(s.X) == 0 || len(s.X) != len(s.Y) {
				t.Errorf("%s/%s: X/Y lengths %d/%d", f.ID, s.Label, len(s.X), len(s.Y))
			}
			for _, y := range s.Y {
				if math.IsInf(y, 0) {
					t.Errorf("%s/%s: infinite y value", f.ID, s.Label)
				}
			}
		}
	}
}

// TestCheapDriversStructure runs the sub-second drivers at the default
// configuration through their registry jobs, one panel each named after
// its job, and checks the structural contract.
func TestCheapDriversStructure(t *testing.T) {
	for _, j := range cheapJobs(t, DefaultConfig()) {
		v, err := j.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", j.Name, err)
		}
		checkFigures(t, v.(*JobResult).Figures, []string{j.Name}, 1)
	}
}

// TestPacketDriverSmoke runs every packet-level figure driver on the tiny
// window and checks the panels it returns. Each case lists the exact panel
// IDs so a driver that silently drops or reorders panels fails here.
func TestPacketDriverSmoke(t *testing.T) {
	c := smokeConfig()
	cases := []struct {
		name      string
		run       func() []*Figure
		wantIDs   []string
		minSeries int
	}{
		{"fig7b", c.Figure7b, []string{"fig7ba"}, 3},
		{"fig7c", c.Figure7c, []string{"fig7ca"}, 3},
		{"fig9", c.Figure9, []string{"fig9a", "fig9b", "fig9c"}, 3},
		{"fig10", c.Figure10, []string{"fig10a", "fig10b", "fig10c"}, 3},
		{"fig11", c.Figure11, []string{"fig11a", "fig11b", "fig11c"}, 4},
		{"fig12", c.Figure12, []string{"fig12b"}, 3},
		{"fig13", c.Figure13, []string{"fig13a", "fig13b", "fig13c"}, 3},
		{"fig14", c.Figure14, []string{"fig14a", "fig14b", "fig14c"}, 3},
		{"fig15", c.Figure15, []string{"fig15a", "fig15b", "fig15c"}, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkFigures(t, tc.run(), tc.wantIDs, tc.minSeries)
		})
	}
}

// TestRotorNetExtensionSmoke runs the RotorNet extension driver: its two
// panels must carry the two static networks plus the rotornet series.
func TestRotorNetExtensionSmoke(t *testing.T) {
	t.Parallel()
	figs := smokeConfig().ExtensionRotorNet()
	checkFigures(t, figs, []string{"fig-rotor-a", "fig-rotor-b"}, 3)
	for _, f := range figs {
		last := f.Series[len(f.Series)-1]
		if last.Label != "rotornet" {
			t.Errorf("%s: last series %q, want rotornet", f.ID, last.Label)
		}
	}
}

// TestFluidDriverSmoke runs the remaining fluid-model figure drivers at a
// loose epsilon. Throughput-per-server values must stay in (0, ~1.6]: the
// fluid model normalises to server capacity, and GK at eps=0.35 can
// overshoot 1 by at most its approximation slack.
func TestFluidDriverSmoke(t *testing.T) {
	c := smokeConfig()
	cases := []struct {
		name      string
		run       func() *Figure
		wantID    string
		minSeries int
	}{
		{"fig5b", c.Figure5b, "fig5b", 6},
		{"fig6a", c.Figure6a, "fig6a", 3},
		{"fig6b", c.Figure6b, "fig6b", 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := tc.run()
			checkFigures(t, []*Figure{f}, []string{tc.wantID}, tc.minSeries)
			for _, s := range f.Series {
				for _, y := range s.Y {
					if math.IsNaN(y) || y < 0 || y > 1.6 {
						t.Errorf("%s/%s: throughput %g outside (0, 1.6]", f.ID, s.Label, y)
					}
				}
			}
		})
	}
}

// TestMooreBoundCurve pins the exposed Moore-bound helper: the average-path
// lower bound exceeds 1 for any non-trivial network, grows with n, and
// shrinks as the degree grows.
func TestMooreBoundCurve(t *testing.T) {
	if b := MooreBoundCurve(64, 8); b <= 1 {
		t.Errorf("MooreBoundCurve(64,8) = %g, want > 1", b)
	}
	if MooreBoundCurve(1024, 8) <= MooreBoundCurve(64, 8) {
		t.Error("bound must grow with n at fixed degree")
	}
	if MooreBoundCurve(1024, 16) >= MooreBoundCurve(1024, 8) {
		t.Error("bound must shrink with degree at fixed n")
	}
}
