// Command perfbench is the repository benchmark. For one seeded workload it
// builds the store, drives the zserved request path in-process through
// server.Server's http.Handler (no sockets), checks every answer against the
// row store, and prints the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced replay (-trace 1) as the last line of standard output.
//
//	go run . -workload explore-scan -seed 1 -seconds 10 -trace 0
//
// It writes its files under .bench_build/perfbench in the working directory.
// METRICS.md maps each per-layer metric to the end-to-end metric it moves.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a -trace 0 run sets up; setup_s is the median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1 = per-layer metrics from a traced replay, 0 = end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, dur time.Duration, traced bool) error {
	if dur <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	t0 := time.Now()
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	phases := map[string]float64{"generate": time.Since(t0).Seconds()}
	base := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(base, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []time.Duration
	var in *instance
	for i := 0; i < reps; i++ {
		in = nil
		runtime.GC()
		var d time.Duration
		if in, d, err = setup(w, dir, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
	}
	st0, err := datasetStats(in.srv)
	if err != nil {
		return err
	}
	runtime.GC()
	res, err := runWindow(w, in, dur, traced)
	if err != nil {
		return err
	}
	st1, err := datasetStats(in.srv)
	if err != nil {
		return err
	}
	reads := len(res.samples)
	attempted := reads + len(res.appends) + len(res.compacts)
	lats := make([]time.Duration, reads)
	var chk checkResult
	for i, s := range res.samples {
		lats[i] = s.lat
		if s.status != http.StatusOK {
			chk.fail(1, "request %d: status %d", s.pool, s.status)
		}
	}
	sortDurations(lats)
	allocPerReq := res.readAllocPerReq()
	if !traced {
		// The per-read records are the benchmark's, not the server's heap;
		// only -trace 1 needs them again.
		res.samples = nil
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapLive := float64(mem.HeapAlloc) / (1 << 20)

	t0 = time.Now()
	if err := verify(&chk, w, in, res); err != nil {
		return fmt.Errorf("checking answers: %w", err)
	}
	phases["check"] = time.Since(t0).Seconds()
	for _, n := range chk.notes {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", n)
	}

	all := map[string]metric{
		"setup_s":             {median(setups).Seconds(), "s"},
		"qps":                 {float64(reads) / res.elapsed.Seconds(), "1/s"},
		"lat_p50_ms":          {ms(quantile(lats, 0.50)), "ms"},
		"lat_p90_ms":          {ms(quantile(lats, 0.90)), "ms"},
		"alloc_kb_per_req":    {allocPerReq / 1024, "kB"},
		"heap_live_mb":        {heapLive, "MB"},
		"error_ratio":         {float64(chk.failed) / float64(max(attempted, 1)), "ratio"},
		"engine.ulp_mismatch": {float64(chk.nearMiss), "count"},
	}
	addWriterMetrics(all, w, in, res)
	meta := map[string]any{
		"workload": name, "seed": seed, "seconds": dur.Seconds(), "trace": traced,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "reads": reads, "appends": len(res.appends), "compactions": len(res.compacts),
		"passes": float64(reads) / float64(len(w.pass)), "pass_len": len(w.pass), "distinct_requests": len(w.pool),
		"setup_reps_s":    durationsSeconds(setups),
		"samples":         map[string]int{"lat_p50_ms": reads, "lat_p90_ms": reads, "append_p50_ms": len(res.appends), "append_p90_ms": len(res.appends)},
		"gen.late_ms":     all["gen.late_ms"].Value,
		"near_miss_reads": chk.nearMiss,
		"writer_alloc_mb": float64(res.writerAlloc) / (1 << 20),
		"phase_s":         phases,
		"pass_s":          durationsSeconds(res.passes),
	}
	var report string
	var spans *spanLog
	if traced {
		t0 = time.Now()
		if report, spans, err = layerMetrics(all, w, in, res, st0, st1); err != nil {
			return err
		}
		phases["replay"] = time.Since(t0).Seconds()
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := result{Correct: chk.failed == 0, Attempted: attempted, Failed: chk.failed, Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return fmt.Errorf("metric %s was not computed", n)
		}
		out.Metrics[n] = m
	}
	if c, ok := all["trace.counters_match"]; ok && c.Value != 1 {
		out.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: FAILED traced and untraced replays disagree on engine counters")
	}
	if err := writeResults(base, name, seed, traced, meta, all, report, spans); err != nil {
		return err
	}
	if report != "" {
		fmt.Fprint(os.Stderr, report)
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Println(string(metaLine))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd and perLayer are the metric names -trace 0 and -trace 1 print;
// BENCHMARK.json lists the same names.
var endToEnd = []string{"setup_s", "qps", "lat_p50_ms", "lat_p90_ms", "alloc_kb_per_req", "heap_live_mb"}

var perLayer = []string{
	"error_ratio",
	"server.self_ms", "server.cache_hit_ratio", "server.coalesce_ratio", "server.batches_per_req",
	"server.resp_kb_per_req", "server.shed",
	"zql.parse_us",
	"zexec.fetch_ms", "zexec.sql_per_req", "zexec.requests_per_req", "zexec.process_ms",
	"zexec.tuples_per_req", "zexec.self_ms",
	"vis.dist_calls_per_req", "vis.abandon_ratio",
	"engine.batch_ms", "engine.self_ms", "engine.plans_per_batch", "engine.prepare_us",
	"engine.rows_scanned_per_req", "engine.seg_skip_ratio", "engine.ulp_mismatch",
	"zpack.load_ms", "zpack.loads", "zpack.bytes_loaded", "zpack.append_ms",
	"compact.run_ms", "compact.rows_rewritten", "compact.unsorted_before", "compact.unsorted_after",
	"append_p50_ms", "append_p90_ms", "write_amp", "space_amp", "gen.late_ms",
	"trace.overhead", "trace.unaccounted_ms", "trace.counters_match",
}

// addWriterMetrics adds the ingest metrics; they are zero on workloads
// without a writer.
func addWriterMetrics(all map[string]metric, w *workload, in *instance, res *runResult) {
	var lats []time.Duration
	var wall, late time.Duration
	var grown, csv int64
	for _, a := range res.appends {
		lats = append(lats, a.lat)
		wall += a.wall
		late += a.late
		grown += a.growth
		csv += a.csv
	}
	sortDurations(lats)
	var cwall time.Duration
	var rows, before, after int64
	for _, c := range res.compacts {
		cwall += c.wall
		rows += int64(c.rows)
		before += c.unsortedBefore
		after += c.unsortedAfter
		grown += c.size
	}
	na, nc := float64(max(len(res.appends), 1)), float64(max(len(res.compacts), 1))
	all["append_p50_ms"] = metric{ms(quantile(lats, 0.5)), "ms"}
	all["append_p90_ms"] = metric{ms(quantile(lats, 0.9)), "ms"}
	all["zpack.append_ms"] = metric{ms(wall) / na, "ms"}
	all["gen.late_ms"] = metric{ms(late) / na, "ms"}
	all["compact.run_ms"] = metric{ms(cwall) / nc, "ms"}
	all["compact.rows_rewritten"] = metric{float64(rows), "count"}
	all["compact.unsorted_before"] = metric{float64(before) / nc, "count"}
	all["compact.unsorted_after"] = metric{float64(after) / nc, "count"}
	all["write_amp"] = metric{ratio(float64(grown), float64(csv)), "ratio"}
	space := 0.0
	if in.path != "" && len(res.appends) > 0 {
		if size, err := fileSize(in.path); err == nil {
			space = ratio(float64(size), float64(w.tableCSV+csv))
		}
	}
	all["space_amp"] = metric{space, "ratio"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return quantile(s, 0.5)
}

func durationsSeconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}

// commit identifies the code under test: the VCS revision when the build
// has one, else a hash of the repository's Go sources and go.mod files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeResults writes the run's metadata and every computed metric, plus the
// traced report and spans, under base/results.
func writeResults(base, name string, seed int64, traced bool, meta map[string]any, all map[string]metric, report string, spans *spanLog) error {
	dir := filepath.Join(base, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, map[bool]int{false: 0, true: 1}[traced]))
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "metrics": all}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	if err := os.WriteFile(stem+".report.txt", []byte(report), 0o644); err != nil {
		return err
	}
	return writeSpans(stem+".spans.tsv", spans)
}
