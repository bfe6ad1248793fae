package validate

import (
	"context"
	"strings"
	"testing"
)

// TestSmokeSweep runs the reduced validation grid — the same set `make
// validate-smoke` executes — so `go test ./...` catches cross-model drift.
func TestSmokeSweep(t *testing.T) {
	checks := All(1, true)
	if len(checks) < 12 {
		t.Fatalf("only %d checks ran; the grid shrank unexpectedly", len(checks))
	}
	for _, c := range checks {
		if !c.OK() {
			t.Errorf("%s: %s (%s)", c.Name, c.Err, c.Detail)
		} else {
			t.Logf("ok %s: %s", c.Name, c.Detail)
		}
	}
}

// TestJobsRegisterAndFail checks the harness-job wrapper: jobs exist, carry
// distinct names, and a passing sweep round-trips through the JSON decode
// path the result cache uses.
func TestJobsRegisterAndFail(t *testing.T) {
	jobs := Jobs(1, false)
	if len(jobs) != 3 {
		t.Fatalf("want 3 validation jobs, got %d", len(jobs))
	}
	names := map[string]bool{}
	for _, j := range jobs {
		if names[j.Name] {
			t.Fatalf("duplicate job name %q", j.Name)
		}
		names[j.Name] = true
		if j.Spec == "" || j.Run == nil || j.Decode == nil || j.Artifacts == nil {
			t.Fatalf("job %q incompletely populated", j.Name)
		}
	}
}

// TestJobsCoverAll checks that the harness jobs run exactly the checks of
// All, on both grids: `runner run -only 'validate-*' [-full]` is the only
// front end of the sweep, so a check group missing from Jobs would never
// run.
func TestJobsCoverAll(t *testing.T) {
	for _, full := range []bool{false, true} {
		t.Run(map[bool]string{false: "smoke", true: "full"}[full], func(t *testing.T) {
			if full && raceEnabled {
				t.Skip("full grid takes over 10 min under -race; the smoke grid runs the same code")
			}
			t.Parallel()
			var got []string
			for _, j := range Jobs(1, full) {
				v, err := j.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", j.Name, err)
				}
				for _, c := range v.([]Check) {
					got = append(got, c.Name)
				}
			}
			var want []string
			for _, c := range All(1, !full) {
				want = append(want, c.Name)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("jobs ran %d checks:\n%s\nAll runs %d:\n%s",
					len(got), strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
			}
		})
	}
}

// TestJobFailureNamesEveryCheck forces two of three checks to fail: the
// job's error must name both, since it is the only report of a failed
// sweep.
func TestJobFailureNamesEveryCheck(t *testing.T) {
	j := job("validate-forced", "spec", func() []Check {
		return []Check{
			{Name: "a/first", Err: "off by 2"},
			{Name: "b/passes"},
			{Name: "c/second", Err: "not conserved"},
		}
	})
	v, err := j.Run(context.Background())
	if err == nil {
		t.Fatalf("failing checks returned %v, want an error", v)
	}
	want := "2/3 checks failed: a/first: off by 2; c/second: not conserved"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
