package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"netcoord"
	"netcoord/internal/bheap"
	"netcoord/internal/index"
	"netcoord/internal/server"
)

// serve-read: a registry loaded once, answering a closed loop of
// proximity reads from nproc connections. Each round is 15 GET
// /nearest?k=8, 4 GET /nearest?k=32 and one POST /nearest/batch of 32
// coordinate queries; nothing writes.
const (
	readRounds    = 256 // rounds in the generated op cycle
	roundGets8    = 15
	roundGets32   = 4
	batchQueries  = 32
	batchK        = 8
	batchesKept   = 4   // batch answers kept per worker per run for checking
	getsKeptLimit = 200 // GET answers kept per worker per run for checking
)

type readOp struct {
	batch bool
	id    string // GET: the query node
	k     int
	url   string
	body  []byte       // batch: request body
	qs    []batchQuery // batch: the queries, for checking
}

type batchQuery struct {
	vec    [3]float64
	height float64
}

type servedAnswer struct {
	op   *readOp
	body []byte
}

type serveRead struct {
	o    options
	pts  []point
	byID map[string]int
	ops  []readOp

	reg    *netcoord.Registry
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client

	mu   sync.Mutex
	kept []servedAnswer
}

func newServeRead(o options) *serveRead {
	rng := rand.New(rand.NewPCG(o.seed, 0x5e7e))
	l := newLayout()
	w := &serveRead{o: o, pts: genPoints(rng, l, o.scale.entries), byID: map[string]int{}}
	for i, p := range w.pts {
		w.byID[p.id] = i
	}
	for r := 0; r < readRounds; r++ {
		for i := 0; i < roundGets8+roundGets32; i++ {
			k := 8
			if i >= roundGets8 {
				k = 32
			}
			id := w.pts[rng.IntN(len(w.pts))].id
			w.ops = append(w.ops, readOp{id: id, k: k, url: fmt.Sprintf("/nearest?id=%s&k=%d", id, k)})
		}
		w.ops = append(w.ops, genBatch(rng, w.pts))
	}
	return w
}

// genBatch draws a batch of coordinate queries, each near a random
// entry.
func genBatch(rng *rand.Rand, pts []point) readOp {
	op := readOp{batch: true, k: batchK}
	type q struct {
		Coord coordJSON `json:"coord"`
		K     int       `json:"k"`
	}
	var body struct {
		Queries []q `json:"queries"`
	}
	for i := 0; i < batchQueries; i++ {
		p := pts[rng.IntN(len(pts))]
		bq := batchQuery{height: rng.Float64()}
		for d := range bq.vec {
			bq.vec[d] = p.vec[d] + rng.NormFloat64()*2
		}
		op.qs = append(op.qs, bq)
		body.Queries = append(body.Queries, q{coordJSON{bq.vec[:], bq.height}, batchK})
	}
	op.body, _ = json.Marshal(body) // plain structs of finite floats always encode
	return op
}

func registryEntries(pts []point) []netcoord.RegistryEntry {
	out := make([]netcoord.RegistryEntry, len(pts))
	for i, p := range pts {
		out[i] = netcoord.RegistryEntry{ID: p.id, Coord: p.coordinate(), Error: p.err}
	}
	return out
}

// setup loads the registry (one bulk UpsertBatch, which builds each
// shard's index) and serves it over loopback, wired as ncserve wires an
// in-memory registry.
func (w *serveRead) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	reg, err := netcoord.NewRegistry(netcoord.RegistryConfig{ChangeStreamBuffer: netcoord.DefaultChangeStreamBuffer})
	if err != nil {
		return err
	}
	w.reg = reg
	if err := reg.UpsertBatch(registryEntries(w.pts)); err != nil {
		return err
	}
	w.srv = server.New(server.Config{Registry: reg, Source: reg})
	w.hs, w.base, err = serve(w.srv)
	if err != nil {
		return err
	}
	w.client = newClient(runtime.NumCPU())
	return nil
}

// warmup opens the connections and starts the query pool and the
// handlers' lazy state before anything is measured.
func (w *serveRead) warmup() error {
	_, err := w.run(warmupRun, nil)
	w.kept = nil
	return err
}

// serve starts an http.Server for h on a loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }() // Serve returns ErrServerClosed once closed
	return hs, "http://" + ln.Addr().String(), nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// run drives the closed loop: nproc workers, each on its own share of
// the op cycle, finishing whole rounds until d has passed.
func (w *serveRead) run(d time.Duration, tr *tracer) (*runStats, error) {
	workers := runtime.NumCPU()
	type workerStats struct {
		gets, batches []float64
		items         float64
		done, failed  int64
		err           error
	}
	stats := make([]workerStats, workers)
	var traceMu sync.Mutex
	hw := watchHeap()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			st := &stats[wi]
			var buf bytes.Buffer
			keptGets, keptBatches := 0, 0
			for r := wi; ; r += workers {
				round := (r % readRounds) * (roundGets8 + roundGets32 + 1)
				for i := 0; i < roundGets8+roundGets32+1; i++ {
					op := &w.ops[round+i]
					t0 := time.Now()
					status, err := w.do(op, &buf)
					t1 := time.Now()
					us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
					if tr != nil {
						layer := "http.nearest"
						if op.batch {
							layer = "http.batch"
						}
						traceMu.Lock() // the tracer is not safe for concurrent use
						tr.add(layer, 0, t0.Sub(tr.t0).Nanoseconds(), t1.Sub(tr.t0).Nanoseconds())
						traceMu.Unlock()
					}
					st.done++
					if err != nil || status != http.StatusOK {
						st.failed++
						if st.err == nil {
							st.err = fmt.Errorf("%s: status %d: %v", op.url, status, err)
						}
						continue
					}
					keep := false
					if op.batch {
						st.batches = append(st.batches, us)
						st.items += batchQueries
						if keep = keptBatches < batchesKept; keep {
							keptBatches++
						}
					} else {
						st.gets = append(st.gets, us)
						st.items++
						if keep = st.done%int64(w.o.scale.checkEvery) == 0 && keptGets < getsKeptLimit; keep {
							keptGets++
						}
					}
					if keep {
						w.mu.Lock()
						w.kept = append(w.kept, servedAnswer{op, bytes.Clone(buf.Bytes())})
						w.mu.Unlock()
					}
				}
				if time.Now().After(deadline) {
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	rs := &runStats{cpu: cpuTime() - cpu0}
	rs.heap = hw.Stop()
	var firstErr error
	for _, st := range stats {
		rs.primary = append(rs.primary, st.gets...)
		rs.secondary = append(rs.secondary, st.batches...)
		rs.items += st.items
		rs.attempted += st.done
		rs.failed += st.failed
		firstErr = cmpErr(firstErr, st.err)
	}
	elapsed := time.Since(start).Seconds()
	rs.notes = append(rs.notes, fmt.Sprintf("closed loop, %d connections, %.0f queries answered/s, %d GET + %d batch requests",
		workers, rs.items/elapsed, len(rs.primary), len(rs.secondary)))
	if firstErr != nil {
		rs.notes = append(rs.notes, "first failure: "+firstErr.Error())
	}
	return rs, nil
}

func cmpErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// do sends one op and reads its whole body into buf.
func (w *serveRead) do(op *readOp, buf *bytes.Buffer) (int, error) {
	var resp *http.Response
	var err error
	if op.batch {
		resp, err = w.client.Post(w.base+"/nearest/batch", "application/json", bytes.NewReader(op.body))
	} else {
		resp, err = w.client.Get(w.base + op.url)
	}
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// check compares every kept answer with a brute-force scan of the
// benchmark's own copy of the entries, and every kept batch answer
// with the single-query answers the server gives for the same queries.
func (w *serveRead) check() error {
	if len(w.kept) == 0 {
		return checkf("no answers kept for checking")
	}
	for _, a := range w.kept {
		if err := w.checkAnswer(a); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveRead) checkAnswer(a servedAnswer) error {
	if !a.op.batch {
		var got struct {
			Results []answerJSON `json:"results"`
		}
		if err := json.Unmarshal(a.body, &got); err != nil {
			return checkf("GET %s: undecodable answer: %v", a.op.url, err)
		}
		p := w.pts[w.byID[a.op.id]]
		want := bruteKNN(w.pts, p.vec, p.height, a.op.k, p.id)
		if err := compareRanked(toRanked(got.Results), want); err != nil {
			return checkf("GET %s: %v", a.op.url, err)
		}
		return nil
	}
	var got struct {
		Results []struct {
			Results []answerJSON `json:"results"`
		} `json:"results"`
	}
	if err := json.Unmarshal(a.body, &got); err != nil {
		return checkf("batch: undecodable answer: %v", err)
	}
	if len(got.Results) != len(a.op.qs) {
		return checkf("batch: %d answers for %d queries", len(got.Results), len(a.op.qs))
	}
	for i, q := range a.op.qs {
		batch := toRanked(got.Results[i].Results)
		if err := compareRanked(batch, bruteKNN(w.pts, q.vec, q.height, batchK, "")); err != nil {
			return checkf("batch query %d: %v", i, err)
		}
		single, err := w.single(q)
		if err != nil {
			return err
		}
		if err := sameAnswer(batch, single); err != nil {
			return checkf("batch query %d differs from POST /nearest: %v", i, err)
		}
	}
	return nil
}

// single asks POST /nearest for one batch query.
func (w *serveRead) single(q batchQuery) ([]ranked, error) {
	body, _ := json.Marshal(map[string]any{"coord": coordJSON{q.vec[:], q.height}, "k": batchK}) // finite floats always encode
	resp, err := w.client.Post(w.base+"/nearest", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, checkf("POST /nearest: %v", err)
	}
	defer resp.Body.Close()
	var got struct {
		Results []answerJSON `json:"results"`
	}
	if resp.StatusCode != http.StatusOK {
		return nil, checkf("POST /nearest: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return nil, checkf("POST /nearest: undecodable answer: %v", err)
	}
	return toRanked(got.Results), nil
}

// sameAnswer requires two served answers to be identical.
func sameAnswer(a, b []ranked) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// layers times direct calls into the handler, the registry and the
// index with the run's own queries.
func (w *serveRead) layers(tr *tracer, m map[string]metric) error {
	const n = 2000
	var gets []*readOp
	var batches []*readOp
	for i := range w.ops {
		switch {
		case w.ops[i].batch:
			batches = append(batches, &w.ops[i])
		case w.ops[i].k == 8:
			gets = append(gets, &w.ops[i])
		}
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = mustRequest(http.MethodGet, gets[i%len(gets)].url, nil)
	}
	rw := &discardWriter{h: http.Header{}}
	timeCalls(tr, "server.nearest", n, func(i int) { rw.reset(); w.srv.ServeHTTP(rw, reqs[i]) })
	if rw.code != http.StatusOK {
		return fmt.Errorf("in-process GET /nearest: status %d", rw.code)
	}
	allocs := heapObjects()
	for i := range reqs {
		rw.reset()
		w.srv.ServeHTTP(rw, reqs[i])
	}
	m["server.nearest_allocs"] = metric{float64(heapObjects()-allocs) / n, "count"}
	// The same requests over loopback, one at a time on one connection,
	// so the difference to the in-process calls is the client,
	// transport and socket alone.
	var buf bytes.Buffer
	var lerr error
	timeCalls(tr, "http.nearest_k8", n, func(i int) {
		status, err := w.do(gets[i%len(gets)], &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", gets[i%len(gets)].url, status)
		}
		lerr = cmpErr(lerr, err)
	})
	if lerr != nil {
		return lerr
	}

	const nb = 200
	breqs := make([]*http.Request, nb)
	for i := range breqs {
		breqs[i] = mustRequest(http.MethodPost, "/nearest/batch", batches[i%len(batches)].body)
	}
	timeCalls(tr, "server.batch", nb, func(i int) { rw.reset(); w.srv.ServeHTTP(rw, breqs[i]) })
	if rw.code != http.StatusOK {
		return fmt.Errorf("in-process POST /nearest/batch: status %d", rw.code)
	}

	var qerr error
	timeCalls(tr, "registry.nearest", n, func(i int) {
		_, err := w.reg.NearestTo(gets[i%len(gets)].id, 8)
		qerr = cmpErr(qerr, err)
	})
	seqReg, err := netcoord.NewRegistry(netcoord.RegistryConfig{QueryParallelism: 1})
	if err != nil {
		return err
	}
	defer seqReg.Close()
	if err := seqReg.UpsertBatch(registryEntries(w.pts)); err != nil {
		return err
	}
	timeCalls(tr, "registry.nearest_seq", n, func(i int) {
		_, err := seqReg.NearestTo(gets[i%len(gets)].id, 8)
		qerr = cmpErr(qerr, err)
	})
	bqs := make([][]netcoord.NearestQuery, len(batches))
	for i, b := range batches {
		for _, q := range b.qs {
			bqs[i] = append(bqs[i], netcoord.NearestQuery{From: netcoord.Coordinate{Vec: []float64{q.vec[0], q.vec[1], q.vec[2]}, Height: q.height}, K: batchK})
		}
	}
	timeCalls(tr, "registry.batch", nb, func(i int) {
		_, err := w.reg.NearestBatch(bqs[i%len(bqs)])
		qerr = cmpErr(qerr, err)
	})
	if qerr != nil {
		return qerr
	}

	// One shard-sized tree over the same entries.
	shard := max(1, len(w.pts)/netcoord.DefaultRegistryShards)
	ents := make([]index.Entry, shard)
	for i := range ents {
		ents[i] = index.Entry{ID: w.pts[i].id, Coord: w.pts[i].coordinate()}
	}
	tree, err := index.Build(3, ents)
	if err != nil {
		return err
	}
	h := bheap.New(8, index.NeighborBefore)
	var bound index.Bound
	froms := make([]netcoord.Coordinate, n)
	for i := range froms {
		froms[i] = w.pts[w.byID[gets[i%len(gets)].id]].coordinate()
	}
	timeCalls(tr, "index.knn", n, func(i int) {
		h.Reset(8)
		bound.Reset(math.Inf(1))
		qerr = cmpErr(qerr, tree.KNearestInto(froms[i], 8, h, &bound))
	})
	if qerr != nil {
		return qerr
	}

	m["server.nearest_ns"] = metric{tr.medianNs("server.nearest"), "ns"}
	m["server.batch_ns"] = metric{tr.medianNs("server.batch"), "ns"}
	m["registry.nearest_ns"] = metric{tr.medianNs("registry.nearest"), "ns"}
	m["registry.nearest_seq_ns"] = metric{tr.medianNs("registry.nearest_seq"), "ns"}
	m["registry.batch_ns_per_query"] = metric{tr.medianNs("registry.batch") / batchQueries, "ns"}
	m["index.knn_ns"] = metric{tr.medianNs("index.knn"), "ns"}
	m["http.loopback_us"] = metric{(tr.medianNs("http.nearest_k8") - tr.medianNs("server.nearest")) / 1e3, "us"}
	return nil
}

// timeCalls makes n calls of f, each inside a span of layer.
func timeCalls(tr *tracer, layer string, n int, f func(i int)) {
	for i := 0; i < n; i++ {
		start := tr.now()
		f(i)
		tr.add(layer, 0, start, tr.now())
	}
}

func mustRequest(method, url string, body []byte) *http.Request {
	var r io.Reader = http.NoBody
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		panic(err) // the benchmark's own fixed URLs always parse
	}
	return req
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) reset()              { clear(d.h); d.code = 0 }
func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}
func (d *discardWriter) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (w *serveRead) close() error {
	var errs []error
	if w.srv != nil {
		w.srv.Stop()
		w.srv = nil
	}
	if w.hs != nil {
		errs = append(errs, w.hs.Close())
		w.hs = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.reg != nil {
		w.reg.Close()
		w.reg = nil
	}
	return errors.Join(errs...)
}
