package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vis"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// relTol is the relative tolerance a float in a response may differ from
// the row-store oracle by; a difference inside it is a near miss, counted
// but not failed.
const relTol = 1e-9

// checkResult is the outcome of checking every response of a run.
type checkResult struct {
	failed   int      // reads whose response is not 200 or does not match the oracle
	nearMiss int      // reads matching only within relTol, not bit for bit
	notes    []string // the first few failures, for stderr
}

func (c *checkResult) fail(n int, format string, args ...any) {
	c.failed += n
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// oracleTable is the table the oracle answers from: the generated rows, or
// for ingest-mix the final file's rows read back through zpack.
func oracleTable(w *workload, in *instance, appended int) (*dataset.Table, error) {
	if len(w.batches) == 0 {
		return w.table, nil
	}
	r, err := zpack.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		return nil, err
	}
	t := r.Table()
	if want := w.table.NumRows() + appended; t.NumRows() != want {
		return nil, fmt.Errorf("final zpack file holds %d rows, want %d", t.NumRows(), want)
	}
	return t, nil
}

func visInputs(in map[string][]float64) map[string]*vis.Visualization {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]*vis.Visualization, len(in))
	for name, ys := range in {
		out[name] = vis.FromFloats(ys)
	}
	return out
}

// execOptions are the zexec options the server's session uses for every
// request: its default opt level, default metric and configured seed.
func execOptions(r *request) zexec.Options {
	return zexec.Options{Table: datasetName, Opt: zexec.InterTask, Seed: serverConfig().Seed, Inputs: visInputs(r.inputs)}
}

// verify checks every successful read of the run against row-store answers
// computed on the same rows, outside the timed window, and the writer's
// appends and compactions, adding what fails to c.
func verify(c *checkResult, w *workload, in *instance, res *runResult) error {
	appended := 0
	for k, a := range res.appends {
		if a.failed {
			c.fail(1, "append %d: %s", k, a.errText)
		} else {
			rows, _ := w.batch(k)
			appended += len(rows)
		}
	}
	for k, cr := range res.compacts {
		if cr.failed {
			c.fail(1, "compaction %d failed", k)
		}
	}
	t, err := oracleTable(w, in, appended)
	if err != nil {
		return err
	}
	t.Name = datasetName
	want, err := oracle(w, engine.NewRowStore(t), res.variants)
	if err != nil {
		return err
	}
	for _, v := range res.variants {
		exp := want[v.pool]
		var got struct {
			Result any `json:"result"`
		}
		if err := json.Unmarshal(v.body, &got); err != nil {
			c.fail(v.count, "request %d: undecodable response: %v", v.pool, err)
			continue
		}
		near, diff := compareJSON(got.Result, exp, "result")
		switch {
		case diff != "":
			c.fail(v.count, "request %d: %s", v.pool, diff)
		case near > 0:
			c.nearMiss += v.count
		}
	}
	return nil
}

// oracle answers every request some variant responded to, on GOMAXPROCS
// workers, rendered and decoded the way responses are.
func oracle(w *workload, store engine.DB, variants []*variant) ([]any, error) {
	want := make([]any, len(w.pool))
	need := make([]bool, len(w.pool))
	var todo []int
	for _, v := range variants {
		if !need[v.pool] {
			need[v.pool] = true
			todo = append(todo, v.pool)
		}
	}
	errs := make([]error, len(w.pool))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want[i], errs[i] = answer(store, &w.pool[i])
			}
		}()
	}
	for _, i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle: request %d: %w", i, err)
		}
	}
	return want, nil
}

func answer(store engine.DB, r *request) (any, error) {
	q, err := zql.Parse(r.zql)
	if err != nil {
		return nil, err
	}
	res, err := zexec.Run(q, store, execOptions(r))
	if err != nil {
		return nil, err
	}
	return roundTrip(server.EncodeResult(res))
}

// roundTrip renders v the way the server does and decodes it generically.
func roundTrip(v any) (any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	return out, json.Unmarshal(b, &out)
}

// compareJSON compares two decoded JSON values: structure and strings
// exactly, numbers to relTol. It returns the number of numbers that differ
// within tolerance, and a description of the first real difference.
func compareJSON(got, want any, at string) (near int, diff string) {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return 0, fmt.Sprintf("%s: got %v, want %v", at, short(got), short(want))
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return near, fmt.Sprintf("%s: missing key %q", at, k)
			}
			n, d := compareJSON(gv, wv, at+"."+k)
			near += n
			if d != "" {
				return near, d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return 0, fmt.Sprintf("%s: got %v, want %v", at, short(got), short(want))
		}
		for i := range w {
			n, d := compareJSON(g[i], w[i], fmt.Sprintf("%s[%d]", at, i))
			near += n
			if d != "" {
				return near, d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			return 0, fmt.Sprintf("%s: got %v, want %v", at, got, w)
		}
		if g == w {
			return 0, ""
		}
		if math.Abs(g-w) <= relTol*math.Max(math.Abs(g), math.Abs(w)) {
			return 1, ""
		}
		return 0, fmt.Sprintf("%s: got %v, want %v", at, g, w)
	default:
		if got != want {
			return 0, fmt.Sprintf("%s: got %v, want %v", at, short(got), short(want))
		}
	}
	return near, ""
}

func short(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 80 {
		s = s[:80] + "..."
	}
	return s
}
