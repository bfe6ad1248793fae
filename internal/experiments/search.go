package experiments

import (
	"context"
	"fmt"

	"beyondft/internal/harness"
	"beyondft/internal/search"
)

// searchSpecVersion versions the design-search jobs for the result cache —
// bump it when the search configuration grid or figure shapes change
// (search.CodeSalt separately versions the per-candidate GK entries).
const searchSpecVersion = "search-jobs-v1"

// searchRuns is the registration grid: one job per starting family. Sizes
// are fixed here (not Config-dependent) so job names stay stable across
// scales; budgets come from Config via searchBudget.
var searchRuns = []struct {
	name   string
	kind   string
	n      int // switches
	degree int
	lift   int // xpander
	srv    int
	seed   int64
	salt   int64 // Config.rng salt of the starting instance's build
}{
	{"search-jellyfish", "jellyfish", 16, 4, 0, 3, 7, 37},
	{"search-xpander", "xpander", 15, 4, 3, 3, 7, 38},
}

// searchBudget scales the candidate budget with the configuration: the
// default (smoke-grade) config keeps runs interactive, the paper config
// searches harder.
func (c Config) searchBudget() int {
	if c.Full {
		return 200
	}
	return 24
}

// searchFigure runs one seeded search and renders the best-found-vs-baseline
// trajectory: throughput of the accepted state and of the best design after
// every step, against the baseline's flat line. Only trace content enters
// the figure — cache and worker accounting are excluded, so resumed runs
// are byte-identical to cold ones.
func (c Config) searchFigure(ctx context.Context, name string, params search.Params, seed, salt int64, cache *harness.Cache) ([]*Figure, error) {
	base, err := params.Build(c.rng(salt))
	if err != nil {
		return nil, err
	}

	var cc *search.CandidateCache
	if cache != nil {
		cc = &search.CandidateCache{Cache: cache}
	}
	res, err := search.Run(base, params, search.Options{
		Seed:    seed,
		Budget:  c.searchBudget(),
		FineEps: c.Epsilon,
		Name:    name + "-best",
		Ctx:     ctx,
		Cache:   cc,
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     name + "-trajectory",
		Title:  fmt.Sprintf("Design search from %s: best found vs baseline (equal cost)", res.BaselineName),
		XLabel: "step",
		YLabel: "throughput",
		Series: []Series{{Label: "baseline"}, {Label: "state"}, {Label: "best"}},
		Notes: []string{
			fmt.Sprintf("budget=%d spent=%d fine_eps=%g seed=%d envelope_servers=%d envelope_dollars=%.0f",
				c.searchBudget(), res.Spent, c.Epsilon, seed, res.Envelope.Servers, res.Envelope.MaxDollars),
			fmt.Sprintf("baseline=%.6f best=%.6f at step %d (design %.12s)",
				res.Baseline, res.BestVal, res.BestStep, res.BestHash),
		},
	}
	for _, s := range res.Steps {
		x := float64(s.Step)
		fig.Series[0].X = append(fig.Series[0].X, x)
		fig.Series[0].Y = append(fig.Series[0].Y, res.Baseline)
		fig.Series[1].X = append(fig.Series[1].X, x)
		fig.Series[1].Y = append(fig.Series[1].Y, s.State)
		fig.Series[2].X = append(fig.Series[2].X, x)
		fig.Series[2].Y = append(fig.Series[2].Y, s.Best)
	}
	return []*Figure{fig}, nil
}

// SearchJobs exposes the design searches to the experiment harness: one job
// per starting family, cached at two granularities. The harness caches the
// whole JobResult under the (Config, run) spec; independently, every
// candidate GK evaluation is content-addressed in the same cache via
// CandidateCache, so an interrupted search resumes from the candidates
// already solved instead of restarting.
func (c Config) SearchJobs(cache *harness.Cache) []harness.Job {
	jobs := make([]harness.Job, 0, len(searchRuns))
	for _, sr := range searchRuns {
		sr := sr
		jobs = append(jobs, harness.Job{
			Name: sr.name,
			Spec: fmt.Sprintf("%s|%s|kind=%s,n=%d,degree=%d,lift=%d,srv=%d,seed=%d|budget=%d",
				searchSpecVersion, c.Spec(), sr.kind, sr.n, sr.degree, sr.lift, sr.srv, sr.seed, c.searchBudget()),
			Run: func(ctx context.Context) (any, error) {
				params := search.Params{Kind: sr.kind, N: sr.n, Degree: sr.degree, Lift: sr.lift, Servers: sr.srv}
				figs, err := c.searchFigure(ctx, sr.name, params, sr.seed, sr.salt, cache)
				if err != nil {
					return nil, err
				}
				return &JobResult{Figures: figs}, nil
			},
			Decode:    decodeJobResult,
			Artifacts: writeFigureCSVs,
		})
	}
	return jobs
}
