package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/zpack"
)

// recorder is a reusable in-process http.ResponseWriter: the handler writes
// into it exactly as it would into a connection, with no socket in between.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.buf.Reset()
}

// serve sends one request through the handler into rec and returns the
// handler wall time: from handler entry until the response is written.
func serve(h http.Handler, rec *recorder, method, path string, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	rec.reset()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start), nil
}

// instance is one set-up serving stack.
type instance struct {
	reg  *server.Registry
	srv  *server.Server
	path string // zpack file, "" for in-memory datasets
}

// setup builds the store, the server and runs one warm-up pass over the
// request pool. Its wall time is the set-up metric; the caller forces a GC
// first so no earlier garbage is collected on its clock.
func setup(w *workload, dir string, rep int) (*instance, time.Duration, error) {
	start := time.Now()
	in := &instance{reg: server.NewRegistry()}
	if w.zpack {
		in.path = filepath.Join(dir, fmt.Sprintf("setup%d.zpack", rep))
		if err := zpack.Build(in.path, w.table); err != nil {
			return nil, 0, err
		}
		if _, err := in.reg.AddZpack(datasetName, in.path, serverConfig()); err != nil {
			return nil, 0, err
		}
	} else if _, err := in.reg.AddTable(w.table, serverConfig()); err != nil {
		return nil, 0, err
	}
	in.srv = server.New(in.reg)
	rec := newRecorder()
	for _, i := range w.warm {
		r := &w.pool[i]
		if _, err := serve(in.srv, rec, http.MethodPost, r.path, r.body); err != nil {
			return nil, 0, err
		}
		if rec.status != http.StatusOK {
			return nil, 0, fmt.Errorf("warm-up %s request %d: status %d: %s", r.path, i, rec.status, rec.buf.String())
		}
	}
	return in, time.Since(start), nil
}

// datasetStats reads the dataset's /stats entry through the handler.
func datasetStats(srv *server.Server) (server.DatasetStats, error) {
	rec := newRecorder()
	if _, err := serve(srv, rec, http.MethodGet, "/stats", nil); err != nil {
		return server.DatasetStats{}, err
	}
	var out struct {
		Datasets map[string]server.DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(rec.buf.Bytes(), &out); err != nil {
		return server.DatasetStats{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return out.Datasets[datasetName], nil
}

// sample is one completed read.
type sample struct {
	pool   int32 // pool index of the request
	status int16
	at     time.Duration // start, from the window's start
	lat    time.Duration // handler wall
	size   int32         // response body bytes
	stats  server.RunStatsJSON
}

// variant is the first response body seen for a (request, hash) pair; every
// other response with the same pair is byte-identical up to its stats.
type variant struct {
	pool  int
	body  []byte
	count int
}

// appendRec is one writer append.
type appendRec struct {
	late    time.Duration // how late the writer started it
	lat     time.Duration // due time to commit
	wall    time.Duration // Registry.Append wall
	growth  int64         // file bytes added
	csv     int64         // CSV bytes of the appended rows
	failed  bool
	errText string
}

// compactRec is one writer-triggered compaction.
type compactRec struct {
	wall           time.Duration
	rows           int
	unsortedBefore int64 // /stats gauge just before
	unsortedAfter  int64 // /stats gauge just after
	size           int64 // bytes of the new generation
	failed         bool
}

// runResult is everything the timed window produced.
type runResult struct {
	samples  []sample
	variants []*variant
	elapsed  time.Duration
	passes   []time.Duration // wall time of each pass
	allocs   uint64          // bytes allocated over the window
	// Writer operations: when each append or compaction (with its size and
	// /stats reads) ran, from the window's start, and the bytes allocated
	// meanwhile.
	writerBusy  [][2]time.Duration
	writerAlloc uint64
	appends     []appendRec
	compacts    []compactRec
}

var hashSeed = maphash.MakeSeed()

var statsKey = []byte(`,"stats":`)

// dispenser hands out global sequence positions to the clients and ends the
// run at the first pass boundary after the deadline, so every run issues
// whole passes of the fixed sequence. With a writer, the run ends one whole
// pass after the writer finished instead, so the reader always leaves the
// final snapshot's cache and loaded segments in the same state.
type dispenser struct {
	mu         sync.Mutex
	next       int // starts at pass 1: the warm-up issued pass 0
	passLen    int
	deadline   time.Time
	writerDone func() bool // nil without a writer
	settling   bool        // the writer had finished at an earlier boundary
	done       bool
	starts     []time.Time // when each pass handed out its first position
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.done && d.next%d.passLen == 0 {
		now := time.Now()
		d.starts = append(d.starts, now)
		if d.next > d.passLen && !now.Before(d.deadline) {
			d.done = d.writerDone == nil || d.settling
			d.settling = d.writerDone != nil && d.writerDone()
		}
	}
	if d.done {
		return 0, false
	}
	g := d.next
	d.next++
	return g, true
}

// runWindow drives the timed window: w.clients closed-loop readers over the
// fixed sequence and, for ingest-mix, the open-loop writer.
func runWindow(w *workload, in *instance, dur time.Duration, keepStats bool) (*runResult, error) {
	var writerDone atomic.Bool
	before := allocated()
	start := time.Now()
	disp := &dispenser{next: len(w.pass), passLen: len(w.pass), deadline: start.Add(dur)}
	if len(w.batches) > 0 {
		disp.writerDone = writerDone.Load
	}

	res := &runResult{}
	var writerErr error
	var wg sync.WaitGroup
	if len(w.batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			writerErr = runWriter(w, in, start, dur, res)
		}()
	}
	perClient := make([][]sample, w.clients)
	perVariants := make([]map[[2]uint64]*variant, w.clients)
	var clientErr error
	var errOnce sync.Once
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := newRecorder()
			vars := make(map[[2]uint64]*variant)
			out := make([]sample, 0, 4096)
			for {
				g, ok := disp.take()
				if !ok {
					break
				}
				pi := w.at(g)
				r := &w.pool[pi]
				at := time.Since(start)
				lat, err := serve(in.srv, rec, http.MethodPost, r.path, r.body)
				if err != nil {
					errOnce.Do(func() { clientErr = err })
					break
				}
				body := rec.buf.Bytes()
				s := sample{pool: int32(pi), status: int16(rec.status), at: at, lat: lat, size: int32(len(body))}
				if rec.status == http.StatusOK {
					cut := bytes.LastIndex(body, statsKey)
					if cut < 0 {
						cut = len(body)
					}
					// The response up to its per-run "stats" must repeat
					// byte for byte; keep one body per distinct hash.
					key := [2]uint64{uint64(pi), maphash.Bytes(hashSeed, body[:cut])}
					if v := vars[key]; v != nil {
						v.count++
					} else {
						vars[key] = &variant{pool: pi, body: bytes.Clone(body), count: 1}
					}
					if keepStats && cut < len(body) {
						dec := json.NewDecoder(bytes.NewReader(body[cut+len(statsKey):]))
						if err := dec.Decode(&s.stats); err != nil {
							errOnce.Do(func() { clientErr = fmt.Errorf("decoding response stats: %w", err) })
						}
					}
				}
				out = append(out, s)
			}
			perClient[c] = out
			perVariants[c] = vars
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for i := 1; i < len(disp.starts); i++ {
		res.passes = append(res.passes, disp.starts[i].Sub(disp.starts[i-1]))
	}
	res.allocs = allocated() - before
	if clientErr != nil {
		return nil, clientErr
	}
	if writerErr != nil {
		return nil, writerErr
	}
	for c := range perClient {
		res.samples = append(res.samples, perClient[c]...)
		for _, v := range perVariants[c] {
			res.variants = append(res.variants, v)
		}
	}
	return res, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// allocated returns the bytes the process has allocated so far, without
// stopping the world.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readAllocPerReq is the bytes allocated per read, leaving out the writer:
// what was allocated while an append or compaction ran, and the reads that
// overlapped one. Without this the writer's fixed work, divided by a read
// count that follows the machine's speed, would swamp the figure.
func (r *runResult) readAllocPerReq() float64 {
	reads := 0
	for _, s := range r.samples {
		// busy intervals are sequential: find the first ending after s starts.
		i := sort.Search(len(r.writerBusy), func(i int) bool { return r.writerBusy[i][1] > s.at })
		if i == len(r.writerBusy) || r.writerBusy[i][0] >= s.at+s.lat {
			reads++
		}
	}
	return ratio(float64(r.allocs-r.writerAlloc), float64(reads))
}

// runWriter is the open-loop writer: append k is due at start + k*appendEvery
// and is timed from its due time, so a stall delays every later append's
// latency too. It appends one batch per appendEvery of dur and compacts after
// every compactEvery appends, so each run of a given length does the same
// writes. It records into res.
func runWriter(w *workload, in *instance, start time.Time, dur time.Duration, res *runResult) error {
	n := int(dur / w.appendEvery)
	busy := func(from time.Time, alloc0 uint64) {
		res.writerBusy = append(res.writerBusy, [2]time.Duration{from.Sub(start), time.Since(start)})
		res.writerAlloc += allocated() - alloc0
	}
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * w.appendEvery)
		var late time.Duration
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		} else {
			late = -d
		}
		alloc0, t0 := allocated(), time.Now()
		size0, err := fileSize(in.path)
		if err != nil {
			return err
		}
		a0 := time.Now()
		rows, csv := w.batch(k)
		_, aerr := in.reg.Append(datasetName, rows)
		done := time.Now()
		size1, err := fileSize(in.path)
		if err != nil {
			return err
		}
		busy(t0, alloc0)
		ar := appendRec{late: late, lat: done.Sub(due), wall: done.Sub(a0), growth: size1 - size0, csv: csv}
		if aerr != nil {
			ar.failed, ar.errText = true, aerr.Error()
		}
		res.appends = append(res.appends, ar)
		if (k+1)%w.compactEvery != 0 {
			continue
		}
		alloc0, t0 = allocated(), time.Now()
		st0, err := datasetStats(in.srv)
		if err != nil {
			return err
		}
		c0 := time.Now()
		_, cres, cerr := in.reg.Compact(datasetName, w.compactCols)
		cr := compactRec{wall: time.Since(c0), rows: cres.Rows, failed: cerr != nil}
		st1, err := datasetStats(in.srv)
		if err != nil {
			return err
		}
		if st0.Compaction != nil && st1.Compaction != nil {
			cr.unsortedBefore, cr.unsortedAfter = st0.Compaction.UnsortedSegments, st1.Compaction.UnsortedSegments
		}
		if cr.size, err = fileSize(in.path); err != nil {
			return err
		}
		busy(t0, alloc0)
		res.compacts = append(res.compacts, cr)
	}
	return nil
}
