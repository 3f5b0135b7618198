package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/frontend"
	"repro/internal/server"
	gen "repro/internal/workload"
)

// request is one distinct interaction, encoded before any timer starts.
type request struct {
	path   string // "/query" or "/spec"
	body   []byte // the wire body the handler decodes
	zql    string // the ZQL the server executes (for /spec, its translation)
	inputs map[string][]float64
	spec   *frontend.Spec // non-nil for /spec requests
}

// workload is one fixed, seeded benchmark input: the rows, the serving
// configuration, the distinct requests and the order one pass issues them in.
type workload struct {
	name    string
	clients int            // closed-loop read clients (1 or 2)
	table   *dataset.Table // the rows the dataset starts with
	zpack   bool           // serve from a zpack file instead of an in-memory column table
	pool    []request      // distinct requests; the warm-up pass issues each once
	pass    []int          // one pass: pool indexes, or coldSlot(c) placeholders
	warm    []int          // distinct pool indexes of pass 0, in first-use order

	// Cold slots (serve-mix): slot c of pass p resolves to pool index
	// coldBase + (p*coldPerPass + c) % coldN, so a cold request recurs only
	// after more distinct plans than the result cache holds.
	coldBase, coldN, coldPerPass int

	// Writer (ingest-mix): batches[k] is appended at start + k*appendEvery,
	// and Registry.Compact runs after every compactEvery appends.
	batches      [][]dataset.Row
	batchCSV     []int64 // CSV bytes of each batch's rows
	tableCSV     int64   // CSV bytes of the starting rows
	appendEvery  time.Duration
	compactEvery int
	compactCols  []string
}

// batch is the k-th batch the writer appends; the batches repeat when a
// long window needs more than were generated.
func (w *workload) batch(k int) ([]dataset.Row, int64) {
	return w.batches[k%len(w.batches)], w.batchCSV[k%len(w.batchCSV)]
}

// coldSlot encodes cold slot c as a negative pass entry.
func coldSlot(c int) int { return -1 - c }

// at resolves global sequence position g (pass g/len(pass)) to a pool index.
func (w *workload) at(g int) int {
	e := w.pass[g%len(w.pass)]
	if e >= 0 {
		return e
	}
	c := -1 - e
	p := g / len(w.pass)
	return w.coldBase + (p*w.coldPerPass+c)%w.coldN
}

// datasetName is the registry name every workload serves its table under.
const datasetName = "bench"

// serverConfig is the dataset configuration every workload registers with:
// the server defaults (inter-task batching, 1024-entry cache, one coalescer
// worker, queue bound 256) with a fixed process seed.
func serverConfig() server.Config { return server.Config{Backend: "column", Seed: 1} }

var workloadNames = []string{"explore-scan", "explore-process", "serve-mix", "ingest-mix"}

func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	switch name {
	case "explore-scan":
		w = exploreScan(seed, rng)
	case "explore-process":
		w = exploreProcess(seed, rng)
	case "serve-mix":
		w = serveMix(seed, rng)
	case "ingest-mix":
		w = ingestMix(seed, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	// The warm-up issues the distinct requests of pass 0 in the order the
	// pass first uses them; the timed window starts at pass 1, so the result
	// cache enters it in the state the sequence itself leaves it in.
	seen := make([]bool, len(w.pool))
	for g := range w.pass {
		if i := w.at(g); !seen[i] {
			seen[i] = true
			w.warm = append(w.warm, i)
		}
	}
	return w, nil
}

// renamed copies t's rows, in the order given, into a table named name.
func renamed(t *dataset.Table, name string, order []int) *dataset.Table {
	out := dataset.NewTable(name, fieldsOf(t))
	for _, i := range order {
		out.AppendRow(t.Row(i)...)
	}
	return out
}

func fieldsOf(t *dataset.Table) []dataset.Field {
	fs := make([]dataset.Field, t.NumCols())
	for i, c := range t.Columns() {
		fs[i] = c.Field
	}
	return fs
}

// sortedBy returns row indexes [lo, hi) of t stably ordered by a string column.
func sortedBy(t *dataset.Table, col string, lo, hi int) []int {
	c := t.Column(col)
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.Value(idx[a]).S < c.Value(idx[b]).S })
	return idx
}

// csvBytes is the CSV-encoded size of rows in t's schema; nil rows means
// t's own rows. The header line is not counted.
func csvBytes(t *dataset.Table, rows []dataset.Row) int64 {
	src := t
	if rows != nil {
		src = dataset.NewTable(t.Name, fieldsOf(t))
		for _, r := range rows {
			src.AppendRow(r...)
		}
	}
	var all, header countingWriter
	if err := dataset.WriteCSV(src, &all); err != nil {
		panic(err) // the counting writer never fails
	}
	if err := dataset.WriteCSV(dataset.NewTable(t.Name, fieldsOf(t)), &header); err != nil {
		panic(err)
	}
	return int64(all - header)
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

func identity(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

func productName(p int) string { return fmt.Sprintf("product%04d", p) }

// productList renders n consecutive products starting at first as a ZQL set.
func productList(first, n int) string {
	names := make([]string, n)
	for i := range names {
		names[i] = "'" + productName(first+i) + "'"
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// strata returns n values in random order, one drawn uniformly from each of
// n equal strata of [lo, lo+span): every seed gets distinct values with the
// same spread, so request costs are alike from seed to seed.
func strata(rng *rand.Rand, n int, lo, span float64) []float64 {
	out := make([]float64, n)
	for i, s := range rng.Perm(n) {
		out[i] = lo + span*(float64(s)+rng.Float64())/float64(n)
	}
	return out
}

// constant renders a threshold with 4 decimals.
func constant(v float64) string { return fmt.Sprintf("%.4f", v) }

func queryRequest(zql string, inputs map[string][]float64) request {
	body, err := json.Marshal(server.QueryRequest{Dataset: datasetName, ZQL: zql, Inputs: inputs})
	if err != nil {
		panic(err) // plain strings and floats always encode
	}
	return request{path: "/query", body: body, zql: zql, inputs: inputs}
}

func specRequest(sj server.SpecJSON) request {
	body, err := json.Marshal(server.SpecRequest{Dataset: datasetName, Spec: sj})
	if err != nil {
		panic(err)
	}
	task, err := frontend.TaskByName(sj.Task)
	if err != nil {
		panic(err) // task names below are the documented buttons
	}
	spec := &frontend.Spec{X: sj.X, Y: sj.Y, Z: sj.Z, ZValue: sj.ZValue, VizType: sj.VizType,
		Agg: sj.Agg, Task: task, K: sj.K, Drawn: sj.Drawn}
	for _, f := range sj.Filters {
		spec.Filters = append(spec.Filters, frontend.Filter{Attr: f.Attr, Op: f.Op, Value: f.Value})
	}
	zql, inputs, err := spec.ToZQL()
	if err != nil {
		panic(err)
	}
	return request{path: "/spec", body: body, zql: zql, inputs: inputs, spec: spec}
}

// drawn is a seeded user-drawn trend of n points.
func drawn(rng *rand.Rand, n int) []float64 {
	ys := make([]float64, n)
	v := rng.Float64() * 10
	for i := range ys {
		v += rng.Float64()*4 - 2
		ys[i] = math.Round(v*1000) / 1000
	}
	return ys
}

// exploreScan: fetch-heavy ZQL over a partially clustered zpack table. Each
// request fetches 20 products × {revenue, profit} × {year, month} behind a
// distinct revenue threshold; its trivial trend PROCESS keeps two
// visualizations, fetched again by the output row. A pass issues more
// distinct plans than the result cache holds, so the LRU never hits.
func exploreScan(seed int64, rng *rand.Rand) *workload {
	const products, n, perReq = 400, 420, 20
	raw := gen.Sales(gen.SalesConfig{Rows: 300000, Products: products, Years: 12, Cities: 20, Seed: seed})
	// Two thirds of the rows arrive clustered by product, the rest as
	// generated: product zone maps skip most clustered segments and none of
	// the shuffled tail.
	cut := raw.NumRows() * 2 / 3
	order := append(sortedBy(raw, "product", 0, cut), identity(cut, raw.NumRows())...)
	w := &workload{name: "explore-scan", clients: 1, table: renamed(raw, datasetName, order), zpack: true}
	firsts, thresholds := strata(rng, n, 0, products-perReq), strata(rng, n, 60, 80)
	for i := 0; i < n; i++ {
		first := int(firsts[i])
		cons := "revenue > " + constant(thresholds[i])
		zql := "NAME | X | Y | Z | CONSTRAINTS | VIZ | PROCESS\n" +
			"f1 | x1 <- {'year', 'month'} | y1 <- {'revenue', 'profit'} | v1 <- 'product'." + productList(first, perReq) +
			" | " + cons + " | bar.(y=agg('sum')) | x2, y2, v2 <- argmax(x1, y1, v1)[k=2] T(f1)\n" +
			"*f2 | x2 | y2 | v2 | " + cons + " | bar.(y=agg('sum')) |\n"
		w.pool = append(w.pool, queryRequest(zql, nil))
	}
	w.pass = rng.Perm(n)
	return w
}

// exploreProcess: the golden-corpus process shapes over 500 cities with a
// small scan. The fetch is the same few plans for every request, so after the
// warm-up the cache serves it and the process phase dominates.
func exploreProcess(seed int64, rng *rand.Rand) *workload {
	raw := gen.Housing(gen.HousingConfig{Cities: 500, States: 20, Years: 4, Seed: seed})
	w := &workload{name: "explore-process", clients: 1, table: renamed(raw, datasetName, identity(0, raw.NumRows())), zpack: true}
	// Twelve requests of each shape, each with its own (measure, k) pair,
	// so a seed's data cannot make one costly k-means dominate.
	const n = 60
	measures := []string{"SoldPrice", "ListingPrice", "Turnover_rate", "foreclosures"}
	for i := 0; i < n; i++ {
		y := "'" + measures[i/5%len(measures)] + "'"
		head := "NAME | X | Y | Z | PROCESS\n"
		z := "v1 <- 'city'.*"
		var zql string
		var inputs map[string][]float64
		switch i % 5 {
		case 0, 1:
			mech := "argmin"
			if i%5 == 1 {
				mech = "argmax"
			}
			inputs = map[string][]float64{"f1": drawn(rng, 12)}
			zql = head + "-f1 | | | |\n" +
				fmt.Sprintf("f2 | 'month' | %s | %s | v2 <- %s(v1)[k=%d] D(f1, f2)\n", y, z, mech, 5+i/5%6) +
				fmt.Sprintf("*f3 | 'month' | %s | v2 |\n", y)
		case 2:
			zql = head + fmt.Sprintf("f1 | 'month' | %s | %s | v2 <- R(%d, v1, f1)\n", y, z, 3+i/5%6) +
				fmt.Sprintf("*f2 | 'month' | %s | v2 |\n", y)
		case 3:
			zql = head + fmt.Sprintf("f1 | 'month' | %s | %s | v2 <- R(3, v1, f1)\n", y, z) +
				fmt.Sprintf("f2 | 'month' | %s | v2 | v3 <- argmax(v1)[k=%d] min(v2) D(f1, f2)\n", y, 2+i/5%4) +
				fmt.Sprintf("*f3 | 'month' | %s | v3 |\n", y)
		default:
			zql = head + fmt.Sprintf("f1 | 'month' | %s | %s | v2 <- argany(v1)[t>0] T(f1)\n", y, z) +
				fmt.Sprintf("*f2 | 'month' | %s | v2 |\n", y)
		}
		w.pool = append(w.pool, queryRequest(zql, inputs))
	}
	w.pass = rng.Perm(n)
	return w
}

// serveMix: /query and /spec interactions over a small in-memory column
// table, drawn with Zipf skew from a hot pool the cache holds, plus one cold
// request in twenty that misses and reaches the coalescer. Two clients.
func serveMix(seed int64, rng *rand.Rand) *workload {
	raw := gen.Sales(gen.SalesConfig{Rows: 60000, Products: 60, Years: 10, Cities: 20, Seed: seed})
	w := &workload{name: "serve-mix", clients: 2, table: renamed(raw, datasetName, identity(0, raw.NumRows()))}
	// One request in twenty is cold: the p90 then lies in the tail of the
	// cache hits, not on the edge between hits and misses.
	const hot, cold, passLen, coldPerPass = 300, 960, 2400, 120
	measures := []string{"revenue", "profit", "size", "weight"}
	// Every choice but the drawn trends and the cold thresholds follows
	// from the request's index, so each seed serves the same mix. The four
	// kinds cost about the same when cached, so no percentile falls on the
	// edge between two of them.
	mk := func(i int, threshold string) request {
		y := measures[i/4%len(measures)]
		city := fmt.Sprintf("city%03d", i/16%20)
		switch i % 4 {
		case 0:
			return specRequest(server.SpecJSON{X: "year", Y: y, Z: "category", Agg: "avg",
				Filters: []server.FilterJSON{{Attr: "city", Value: city}, {Attr: "revenue", Op: ">", Value: threshold}}})
		case 1:
			return specRequest(server.SpecJSON{X: "year", Y: y, Z: "category", Task: "similar", K: 3,
				Drawn: drawn(rng, 10), Filters: []server.FilterJSON{{Attr: "revenue", Op: ">", Value: threshold}}})
		case 2:
			// By year the planted trends make the same five categories
			// rise on every seed, so the answer's size does not vary.
			return specRequest(server.SpecJSON{X: "year", Y: y, Z: "category", Task: "rising", Agg: "sum",
				Filters: []server.FilterJSON{{Attr: "revenue", Op: ">", Value: threshold}}})
		default:
			return queryRequest("NAME | X | Y | Z | CONSTRAINTS | VIZ\n"+
				fmt.Sprintf("*f1 | 'year' | '%s' | 'product'.%s | revenue > %s | bar.(y=agg('avg'))\n",
					y, productList(i/4%50, 10), threshold), nil)
		}
	}
	for i := 0; i < hot; i++ {
		w.pool = append(w.pool, mk(i, fmt.Sprint(90+i%8*5)))
	}
	for i, t := range strata(rng, cold, 80, 40) {
		w.pool = append(w.pool, mk(i, constant(t)))
	}
	w.coldBase, w.coldN, w.coldPerPass = hot, cold, coldPerPass
	w.pass = zipfCounts(passLen-coldPerPass, hot, 1.1, 4)
	for c := 0; c < coldPerPass; c++ {
		w.pass = append(w.pass, coldSlot(c))
	}
	rng.Shuffle(len(w.pass), func(a, b int) { w.pass[a], w.pass[b] = w.pass[b], w.pass[a] })
	return w
}

// zipfCounts returns n draws over ranks [0, ranks) in Zipf proportions,
// weight (v+r)^-s as rand.Zipf uses, with each rank repeated its expected
// number of times (largest remainders rounded up), so every seed issues the
// same multiset. The caller shuffles the order.
func zipfCounts(n, ranks int, s, v float64) []int {
	w := make([]float64, ranks)
	var sum float64
	for r := range w {
		w[r] = math.Pow(v+float64(r), -s)
		sum += w[r]
	}
	out := make([]int, 0, n)
	rems := make([]int, ranks)
	for r := range w {
		exact := float64(n) * w[r] / sum
		for k := 0; k < int(exact); k++ {
			out = append(out, r)
		}
		rems[r] = r
		w[r] = exact - math.Floor(exact)
	}
	sort.SliceStable(rems, func(a, b int) bool { return w[rems[a]] > w[rems[b]] })
	for _, r := range rems[:n-len(out)] {
		out = append(out, r)
	}
	return out
}

// ingestYear is the first year the writer appends; every reader filters on
// year < ingestYear, so reader answers are the same on every snapshot and
// the final file's rows are their oracle.
const ingestYear = 2016

// ingestMix: a zpack table clustered by product, read by one closed-loop
// client while an open-loop writer appends shuffled batches of later years
// through Registry.Append and re-clusters through Registry.Compact.
//
// The table is small on purpose. Over 120k rows a read's columns come to
// about the size of one core's L2 cache, and read latency on a shared 2-vCPU
// host jumped between two modes 1.5x apart from second to second, so the
// median of a 10 s window landed in either. At 40k rows a read's columns
// are well under that size, and its median stays put.
func ingestMix(seed int64, rng *rand.Rand) *workload {
	const batches, batchRows = 100, 500
	base := gen.Sales(gen.SalesConfig{Rows: 40000, Products: 100, Years: 10, Cities: 20, Seed: seed})
	w := &workload{name: "ingest-mix", clients: 1, zpack: true,
		table:        renamed(base, datasetName, sortedBy(base, "product", 0, base.NumRows())),
		appendEvery:  200 * time.Millisecond,
		compactEvery: 12,
		compactCols:  []string{"product"},
	}
	// gen.Sales years start at 2006; the appended rows move ten years on.
	later := gen.Sales(gen.SalesConfig{Rows: batches * batchRows, Products: 100, Years: 10, Cities: 20, Seed: seed + 1})
	year := later.Column("year")
	for b := 0; b < batches; b++ {
		rows := make([]dataset.Row, batchRows)
		for i := range rows {
			r := later.Row(b*batchRows + i)
			for j, c := range later.Columns() {
				if c == year {
					r[j] = dataset.IV(r[j].I + ingestYear - 2006)
				}
			}
			rows[i] = r
		}
		w.batches = append(w.batches, rows)
		w.batchCSV = append(w.batchCSV, csvBytes(w.table, rows))
	}
	w.tableCSV = csvBytes(w.table, nil)
	const n = 1200
	firsts, thresholds := strata(rng, n, 0, 70), strata(rng, n, 60, 80)
	for i := 0; i < n; i++ {
		zql := "NAME | X | Y | Z | CONSTRAINTS | VIZ\n" +
			fmt.Sprintf("*f1 | 'year' | 'revenue' | v1 <- 'product'.%s | year < %d AND revenue > %s | bar.(y=agg('sum'))\n",
				productList(int(firsts[i]), 30), ingestYear, constant(thresholds[i]))
		w.pool = append(w.pool, queryRequest(zql, nil))
	}
	w.pass = rng.Perm(n)
	return w
}
