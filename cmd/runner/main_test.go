package main

import (
	"bytes"
	"testing"

	"beyondft/internal/experiments"
	"beyondft/internal/validate"
)

// TestPrintResult pins the two stdout formats of `runner run`: figure rows
// as Figure.Fprint writes them, and one `ok` line per validation check with
// the name padded to 40 columns.
func TestPrintResult(t *testing.T) {
	var got bytes.Buffer
	printResult(&got, []validate.Check{
		{Name: "fluid/a/gk-vs-lp", Detail: "gk 0.98 lp 1.00"},
		{Name: "sims/b/replay-det"},
	})
	want := "ok   fluid/a/gk-vs-lp                         gk 0.98 lp 1.00\n" +
		"ok   sims/b/replay-det                        \n"
	if got.String() != want {
		t.Fatalf("checks printed as\n%q\nwant\n%q", got.String(), want)
	}

	f := experiments.Table1CostModel()
	var rows bytes.Buffer
	f.Fprint(&rows)
	got.Reset()
	printResult(&got, &experiments.JobResult{Figures: []*experiments.Figure{f}})
	if got.String() != rows.String() {
		t.Fatalf("figure printed as\n%s\nwant\n%s", got.String(), rows.String())
	}
}
