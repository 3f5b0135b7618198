package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point.
type span struct {
	name       string
	req        int32 // request id: position in the replayed pass
	parent     int32 // index of the parent span, -1 for a request root
	start, end time.Duration
	extra      time.Duration // zexec.run only: the process phase's wall time
}

// spanLog keeps every span in memory until the replay ends. A nil *spanLog
// records nothing, which is the untraced replay.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	req   int32
	run   int32 // open zexec.run span of the current request
	batch int32 // open engine.batch span, -1 outside ExecuteBatch
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), run: -1, batch: -1} }

func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, req: l.req, parent: parent, start: now})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(id int32) {
	if l == nil {
		return
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans[id].end = now
	l.mu.Unlock()
}

// current returns the open span of the named kind ("run" or "batch").
func (l *spanLog) current(kind string) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if kind == "batch" {
		return l.batch
	}
	return l.run
}

func (l *spanLog) setCurrent(kind string, id int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if kind == "batch" {
		l.batch = id
	} else {
		l.run = id
	}
}

// tracedDB wraps the engine.DB zexec executes against, timing Prepare and
// ExecuteBatch and keeping the store's counter deltas.
type tracedDB struct {
	engine.DB
	log     *spanLog
	batches int64
	plans   int64
	skipped int64 // SegmentsSkipped delta
}

func (d *tracedDB) Prepare(q *minisql.Query) (*engine.Plan, error) {
	id := d.log.begin("engine.prepare", d.log.current("run"))
	p, err := d.DB.Prepare(q)
	d.log.end(id)
	return p, err
}

func (d *tracedDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	c0 := d.DB.Counters()
	id := d.log.begin("engine.batch", d.log.current("run"))
	d.log.setCurrent("batch", id)
	res, err := d.DB.ExecuteBatch(ctx, plans)
	d.log.setCurrent("batch", -1)
	d.log.end(id)
	c1 := d.DB.Counters()
	d.batches++
	d.plans += int64(len(plans))
	d.skipped += c1.SegmentsSkipped - c0.SegmentsSkipped
	return res, err
}

// tracedSource wraps the segment source under the column store, timing Load.
type tracedSource struct {
	engine.SegmentSource
	log *spanLog
}

func (s *tracedSource) Load(seg int) error {
	id := s.log.begin("zpack.load", s.log.current("batch"))
	err := s.SegmentSource.Load(seg)
	s.log.end(id)
	return err
}

// rangedSource forwards SegmentRanged, so a store over a traced range view
// scans the same segments as one over the bare view.
type rangedSource struct {
	*tracedSource
	engine.SegmentRanged
}

func traceSource(src engine.SegmentSource, log *spanLog) engine.SegmentSource {
	t := &tracedSource{SegmentSource: src, log: log}
	if r, ok := src.(engine.SegmentRanged); ok {
		return &rangedSource{tracedSource: t, SegmentRanged: r}
	}
	return t
}

// replayResult is one replay of a pass through the assembled stack.
type replayResult struct {
	walls    []time.Duration // per request, from translation through RunContext
	counters engine.Counters
	db       *tracedDB     // nil for the untraced replay
	log      *spanLog      // nil for the untraced replay
	reader   *zpack.Reader // nil for in-memory datasets
	segments int           // segments of the store's table
}

// replay runs the distinct requests of one pass, in first-use order, through
// zql.Parse and zexec.RunContext over a column store built from public
// constructors, with a timing wrapper at every layer boundary when traced.
func replay(w *workload, path string, traced bool) (*replayResult, error) {
	out := &replayResult{}
	var src engine.SegmentSource
	if path != "" {
		r, err := zpack.Open(path)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		r.Table().Name = datasetName
		out.reader, src = r, r
	} else {
		src = engine.NewMemSource(w.table)
	}
	var db engine.DB
	if traced {
		out.log = newSpanLog()
		src = traceSource(src, out.log)
	}
	store := engine.NewColumnStoreFromSource(src)
	out.segments = store.NumSegments(datasetName)
	db = store
	if traced {
		out.db = &tracedDB{DB: store, log: out.log}
		db = out.db
	}
	log := out.log
	ctx := context.Background()
	for g, i := range w.warm {
		r := &w.pool[i]
		if log != nil {
			log.req = int32(g)
		}
		start := time.Now()
		root := log.begin("request", -1)
		text, opts := r.zql, execOptions(r)
		if r.spec != nil {
			id := log.begin("frontend.to_zql", root)
			zt, inputs, err := r.spec.ToZQL()
			log.end(id)
			if err != nil {
				return nil, err
			}
			text, opts.Inputs = zt, visInputs(inputs)
		}
		id := log.begin("zql.parse", root)
		q, err := zql.Parse(text)
		log.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", g, err)
		}
		id = log.begin("zexec.run", root)
		log.setCurrent("run", id)
		res, err := zexec.RunContext(ctx, q, db, opts)
		log.setCurrent("run", -1)
		log.end(id)
		log.end(root)
		out.walls = append(out.walls, time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", g, err)
		}
		if log != nil {
			log.spans[id].extra = res.Stats.ProcessTime
		}
	}
	out.counters = store.Counters()
	return out, nil
}

// layerRows are the self-time rows of the report, in stack order.
var layerRows = []string{"frontend.to_zql", "zql.parse", "zexec.self", "zexec.process", "engine.prepare", "engine.batch.self", "zpack.load", "unaccounted"}

// selfTimes splits every request's wall time into the self time of each
// layer: a span's duration minus the part of it its children cover (and, for
// zexec.run, minus the process phase). The request root's own remainder is
// the unaccounted time. It returns per-layer totals, the total wall and each
// request's unaccounted remainder.
func selfTimes(log *spanLog) (map[string]time.Duration, time.Duration, []time.Duration) {
	children := make([][]int32, len(log.spans))
	for i, s := range log.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make(map[string]time.Duration)
	var wall time.Duration
	var unaccounted []time.Duration
	for i, s := range log.spans {
		d := s.end - s.start - covered(log.spans, children[i], s.start, s.end)
		switch s.name {
		case "request":
			wall += s.end - s.start
			self["unaccounted"] += d
			unaccounted = append(unaccounted, d)
		case "zexec.run":
			self["zexec.self"] += d - s.extra
			self["zexec.process"] += s.extra
		case "engine.batch":
			// Scan workers load segments in parallel: the load layer's time
			// is the union of its spans, the same interval the batch lost.
			self["engine.batch.self"] += d
			self["zpack.load"] += covered(log.spans, children[i], s.start, s.end)
		case "zpack.load":
		default:
			self[s.name] += d
		}
	}
	return self, wall, unaccounted
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi): scan workers load segments in parallel, so children overlap.
func covered(spans []span, kids []int32, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTotal sums the durations of every span with the given name.
func spanTotal(log *spanLog, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range log.spans {
		if s.name == name {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

// renderReport formats the traced run's self-time table.
func renderReport(w *workload, self map[string]time.Duration, wall time.Duration, unaccounted []time.Duration, overhead float64, server map[string]float64) string {
	reqs := len(unaccounted)
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: traced replay of one pass, %d requests, mean request wall %.4f ms\n", w.name, reqs, ms(wall)/float64(reqs))
	fmt.Fprintf(&b, "%-20s %12s %8s\n", "layer", "self ms/req", "share")
	var sum time.Duration
	for _, name := range layerRows {
		d := self[name]
		sum += d
		fmt.Fprintf(&b, "%-20s %12.4f %7.2f%%\n", name, ms(d)/float64(reqs), 100*float64(d)/float64(wall))
	}
	fmt.Fprintf(&b, "%-20s %12.4f %7.2f%%  (layers + unaccounted = request wall)\n", "sum", ms(sum)/float64(reqs), 100*float64(sum)/float64(wall))
	sortDurations(unaccounted)
	fmt.Fprintf(&b, "unaccounted per request: p50 %.4f ms, p99 %.4f ms, max %.4f ms\n",
		ms(quantile(unaccounted, 0.5)), ms(quantile(unaccounted, 0.99)), ms(quantile(unaccounted, 1)))
	fmt.Fprintf(&b, "trace.overhead %.4f (traced / untraced replay p50 request wall)\n", overhead)
	fmt.Fprintf(&b, "server run, per read: handler wall = server.self + zexec.fetch + zexec.process\n")
	for _, k := range []string{"handler_ms", "server.self_mean_ms", "zexec.fetch_ms", "zexec.process_ms"} {
		fmt.Fprintf(&b, "  %-22s %12.4f %7.2f%%\n", k, server[k], 100*ratio(server[k], server["handler_ms"]))
	}
	return b.String()
}

// writeSpans writes every span, one per line: name, request id, parent
// index (-1 for a request root), start and end in microseconds since the
// replay began.
func writeSpans(path string, log *spanLog) error {
	var b strings.Builder
	b.WriteString("name\treq\tparent\tstart_us\tend_us\n")
	for _, s := range log.spans {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\t%d\n", s.name, s.req, s.parent, s.start.Microseconds(), s.end.Microseconds())
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
