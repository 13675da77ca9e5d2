package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"netcoord"
	"netcoord/internal/persist"
	"netcoord/internal/server"
	"netcoord/internal/wire"
)

// publish-watch: a persistent leader preloaded with the entries, a
// follower bootstrapped from it over binary frames, and one /watch on
// the follower at a point inside one region. One connection sends
// single-entry upserts on a fixed schedule: heartbeats that repeat an
// entry's coordinate, moves within the entry's region, and every
// probeEvery-th a probe node that alternately enters the watched top-k
// (at a distance no entry can have, different for every entry) and
// leaves it again.
const (
	// movesPerMille of the other upserts move their entry; the rest are
	// heartbeats. A node publishes its application coordinate after each
	// system update, one per sample, and the upsert moves the entry only
	// when ENERGY changed the application coordinate: converge measures
	// 0.022 application updates per node-second against 0.998 system
	// updates (README.md, "Workloads").
	movesPerMille = 22
	probeEvery    = 20
	watchK        = 8
	probeID       = "probe"
	subBuffer     = 1 << 16 // in-process change subscriptions: a whole traced run fits, so none is dropped
	// Probe enter m sits at watchedAt + (probeBase + m·probeStep, 0, 0)
	// with height probeHeight: nearer than any entry (heights start at
	// 0.5ms) and at an estimated RTT unique to m, so the /watch event
	// that shows it identifies the upsert.
	probeBase   = 0.01
	probeStep   = 1e-6
	probeHeight = 0.01
)

type upsertOp struct {
	p     point
	probe bool
	enter int // probe enters: the enter's number; -1 otherwise
	body  []byte
}

// upsertRec is what the writer saw for one upsert; times are
// nanoseconds since the run started.
type upsertRec struct {
	due, sent, ack int64
	seq            uint64
	ok             bool
}

// watchEvent is one SSE event from the follower's /watch.
type watchEvent struct {
	at      time.Time
	kind    string
	seq     uint64
	results []ranked
}

type publishWatch struct {
	o         options
	rng       *rand.Rand
	layout    layout
	watchedAt [3]float64
	initial   []point
	model     map[string]point // last write per id, as the benchmark sent them
	ids       []string         // entries the generator heartbeats and moves
	enters    int              // probe enters generated so far

	dir       string
	leader    *netcoord.PersistentRegistry
	lsrv      *server.Server
	lhs       *http.Server
	lbase     string
	follower  *netcoord.FollowerRegistry
	fsrv      *server.Server
	fhs       *http.Server
	fbase     string
	client    *http.Client
	watch     *http.Response
	watchDone chan struct{}

	mu       sync.Mutex
	events   []watchEvent
	watchErr error

	lastLayer layerRun // per-layer figures of the last traced run
}

// layerRun holds the per-layer figures a traced run derives from its
// own upserts.
type layerRun struct {
	feedMs, applyMs, deliverMs float64
	framesRatio, gcPauseMs     float64
	walPerOp                   float64
}

func newPublishWatch(o options) *publishWatch {
	rng := rand.New(rand.NewPCG(o.seed, 0x9b1b))
	w := &publishWatch{o: o, rng: rng, layout: newLayout()}
	w.initial = genPoints(rng, w.layout, o.scale.entries)
	w.initial = append(w.initial, point{id: probeID, height: probeHeight, err: 0.1, region: -1})
	// Watch a point on the flank of the third region: dense enough
	// that moves reach its top-k now and then.
	w.watchedAt = w.layout.center[2]
	w.watchedAt[0] += 1.5 * w.layout.spread[2]
	w.initial[len(w.initial)-1].vec = w.probeOut()
	for _, p := range w.initial[:len(w.initial)-1] {
		w.ids = append(w.ids, p.id)
	}
	return w
}

// probeOut is where the probe waits between enters: 400ms from the
// watched point, outside every region.
func (w *publishWatch) probeOut() [3]float64 {
	return [3]float64{w.watchedAt[0] + 400, w.watchedAt[1], w.watchedAt[2]}
}

// probeRTT is the estimated RTT from the watched point to probe enter
// m.
func (w *publishWatch) probeRTT(m int) float64 {
	return dist(w.watchedAt, 0, w.probeIn(m), probeHeight)
}

func (w *publishWatch) probeIn(m int) [3]float64 {
	return [3]float64{w.watchedAt[0] + probeBase + float64(m)*probeStep, w.watchedAt[1], w.watchedAt[2]}
}

// setup opens a persistent leader in a fresh directory (fsync on),
// preloads it, bootstraps a follower from it and connects the watcher,
// wired as ncserve wires a -data-dir leader and a -follow replica.
func (w *publishWatch) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	w.model = make(map[string]point, len(w.initial))
	for _, p := range w.initial {
		w.model[p.id] = p
	}
	w.enters, w.events = 0, nil
	dir, err := os.MkdirTemp(w.o.work, "publish-watch-")
	if err != nil {
		return err
	}
	w.dir = dir
	regCfg := netcoord.RegistryConfig{ChangeStreamBuffer: netcoord.DefaultChangeStreamBuffer}
	w.leader, err = netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Registry: regCfg, Dir: dir})
	if err != nil {
		return err
	}
	entries := registryEntries(w.initial)
	for len(entries) > 0 {
		n := min(len(entries), 4096)
		if err := w.leader.UpsertBatch(entries[:n]); err != nil {
			return err
		}
		entries = entries[n:]
	}
	w.lsrv = server.New(server.Config{Registry: w.leader.Registry, Source: w.leader, Persist: w.leader})
	if w.lhs, w.lbase, err = serve(w.lsrv); err != nil {
		return err
	}
	w.follower, err = netcoord.StartFollower(netcoord.FollowerConfig{Upstreams: []string{w.lbase}, Registry: regCfg})
	if err != nil {
		return err
	}
	w.fsrv = server.New(server.Config{Registry: w.follower.Registry, Source: w.follower, Follower: w.follower})
	if w.fhs, w.fbase, err = serve(w.fsrv); err != nil {
		return err
	}
	w.client = newClient(2)
	return w.startWatch()
}

// startWatch opens the /watch stream and returns once its initial
// snapshot has arrived.
func (w *publishWatch) startWatch() error {
	// %g prints the shortest form that parses back to the same float.
	url := fmt.Sprintf("%s/watch?vec=%g,%g,%g&k=%d", w.fbase, w.watchedAt[0], w.watchedAt[1], w.watchedAt[2], watchK)
	resp, err := w.client.Get(url)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("/watch: status %d", resp.StatusCode)
	}
	w.watch = resp
	w.watchDone = make(chan struct{})
	go w.readWatch(resp)
	return waitFor(5*time.Second, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.events) > 0 || w.watchErr != nil
	})
}

// readWatch parses SSE events until the stream ends.
func (w *publishWatch) readWatch(resp *http.Response) {
	defer close(w.watchDone)
	br := bufio.NewReader(resp.Body)
	var kind string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return // the stream ends when the benchmark closes it
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			at := time.Now()
			var d struct {
				Seq     uint64       `json:"seq"`
				Results []answerJSON `json:"results"`
			}
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d)
			w.mu.Lock()
			if err != nil {
				w.watchErr = cmpErr(w.watchErr, fmt.Errorf("undecodable /watch event: %v", err))
			} else {
				w.events = append(w.events, watchEvent{at: at, kind: kind, seq: d.Seq, results: toRanked(d.Results)})
			}
			w.mu.Unlock()
		}
	}
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// warmup sends upserts on the measured schedule before anything is
// measured, so connections and lazy state are in place.
func (w *publishWatch) warmup() error {
	_, err := w.run(warmupRun, nil)
	return err
}

// upsert kinds nextOp draws.
const (
	opMix   = iota // a heartbeat or, movesPerMille in a thousand, a move
	opMove         // always a move
	opProbe        // the probe's next enter or leave
)

// nextOp draws the next upsert of a kind and applies it to the model.
func (w *publishWatch) nextOp(kind int) upsertOp {
	var p point
	enter := -1
	switch {
	case kind == opProbe:
		p = w.model[probeID]
		if p.vec == w.probeOut() {
			enter = w.enters
			w.enters++
			p.vec = w.probeIn(enter)
		} else {
			p.vec = w.probeOut()
		}
	case kind == opMix && w.rng.IntN(1000) >= movesPerMille: // heartbeat: same coordinate, same error
		p = w.model[w.ids[w.rng.IntN(len(w.ids))]]
	default: // move within the entry's region
		p = w.model[w.ids[w.rng.IntN(len(w.ids))]]
		p.vec = w.layout.place(w.rng, p.region)
		p.err = 0.05 + 0.45*w.rng.Float64()
	}
	w.model[p.id] = p
	body, _ := json.Marshal(map[string]any{"id": p.id, "coord": coordJSON{p.vec[:], p.height}, "error": p.err}) // finite floats always encode
	return upsertOp{p: p, probe: kind == opProbe, enter: enter, body: body}
}

// run sends rate×d upserts on schedule over one connection, timing
// each from when it was due, then waits until the follower and the
// watcher have caught up. A traced run also follows the change stream
// in process at the leader and at the follower.
func (w *publishWatch) run(d time.Duration, tr *tracer) (*runStats, error) {
	// Whole probe cycles: every run starts and ends with the probe out.
	n := int(d.Seconds()*float64(w.o.scale.rate)) / (2 * probeEvery) * (2 * probeEvery)
	interval := time.Second / time.Duration(w.o.scale.rate)
	ops := make([]upsertOp, n)
	for i := range ops {
		kind := opMix
		if i%probeEvery == 0 {
			kind = opProbe
		}
		ops[i] = w.nextOp(kind)
	}
	var lsub, fsub *netcoord.ChangeSubscription
	var lseen, fseen *seenTimes
	if tr != nil {
		var err error
		if lsub, err = w.leader.SubscribeChanges(subBuffer); err != nil {
			return nil, err
		}
		if fsub, err = w.follower.SubscribeChanges(subBuffer); err != nil {
			lsub.Close()
			return nil, err
		}
		lseen, fseen = follow(lsub), follow(fsub)
	}
	fst0 := w.follower.FollowerStats()
	if err := w.leader.Sync(); err != nil {
		return nil, err
	}
	wal0 := w.leader.PersistStats().WALBytes
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w.mu.Lock()
	firstEvent := len(w.events)
	w.mu.Unlock()

	recs := make([]upsertRec, n)
	hw := watchHeap()
	cpu0 := cpuTime()
	start := time.Now()
	var failed int64
	var firstErr error
	var buf bytes.Buffer
	for i := range ops {
		due := time.Duration(i) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		r := &recs[i]
		r.due, r.sent = int64(due), int64(time.Since(start))
		seq, err := w.upsert(ops[i].body, &buf)
		r.ack = int64(time.Since(start))
		r.seq, r.ok = seq, err == nil
		if err != nil {
			failed++
			firstErr = cmpErr(firstErr, err)
		}
	}
	catchErr := w.catchUp()
	rs := &runStats{cpu: cpuTime() - cpu0, items: float64(n), attempted: int64(n), failed: failed}
	rs.heap = hw.Stop()

	late := make([]float64, n)
	for i, r := range recs {
		rs.primary = append(rs.primary, float64(r.ack-r.due)/1e3)
		late[i] = float64(r.sent-r.due) / 1e6
	}
	delivered, merged := w.deliveries(firstEvent, ops)
	for i, at := range delivered {
		if !at.IsZero() {
			rs.secondary = append(rs.secondary, float64(at.Sub(start).Nanoseconds()-recs[i].due)/1e3)
		}
	}
	// A merged enter took longer to deliver than the gap to its leave;
	// it counts at that gap, its lower bound, so slow deliveries raise
	// the median instead of dropping out of it.
	gap := float64((probeEvery * interval).Nanoseconds()) / 1e3
	for range merged {
		rs.secondary = append(rs.secondary, gap)
	}
	endLate := median(late[n-n/100-1:])
	slices.Sort(late)
	rs.notes = append(rs.notes,
		fmt.Sprintf("open loop at %d upserts/s over 1 connection, %d upserts, %d probe deliveries timed, %d of %d probe enters merged with their leave (counted at %.0f us)",
			w.o.scale.rate, n, len(rs.secondary)-merged, merged, n/(2*probeEvery), gap),
		fmt.Sprintf("generator lateness: p99 %.3f ms, max %.3f ms, final 1%% median %.3f ms, backlog grew: %t",
			percentile(late, 99), late[n-1], endLate, endLate > 50*interval.Seconds()*1e3))
	if firstErr != nil {
		rs.notes = append(rs.notes, "first failure: "+firstErr.Error())
	}
	if catchErr != nil {
		rs.notes = append(rs.notes, "catch-up: "+catchErr.Error())
	}
	if tr == nil {
		return rs, nil
	}
	lsub.Close()
	fsub.Close()
	lt, ft := lseen.wait(), fseen.wait()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if err := w.leader.Sync(); err != nil {
		return nil, err
	}
	fst1 := w.follower.FollowerStats()
	base := start.Sub(tr.t0).Nanoseconds()
	var feed, apply, deliver []float64
	for i, r := range recs {
		if !r.ok {
			continue
		}
		id := tr.add("http.upsert", 0, base+r.sent, base+r.ack)
		if at, ok := lt[r.seq]; ok {
			tr.add("leader.feed", id, base+r.due, at.Sub(tr.t0).Nanoseconds())
			feed = append(feed, float64(at.Sub(start).Nanoseconds()-r.due)/1e6)
		}
		at, ok := ft[r.seq]
		if !ok {
			continue
		}
		aid := tr.add("follower.apply", id, base+r.due, at.Sub(tr.t0).Nanoseconds())
		apply = append(apply, float64(at.Sub(start).Nanoseconds()-r.due)/1e6)
		if wt := delivered[i]; !wt.IsZero() {
			tr.add("hub.deliver", aid, at.Sub(tr.t0).Nanoseconds(), wt.Sub(tr.t0).Nanoseconds())
			deliver = append(deliver, float64(wt.Sub(at).Nanoseconds())/1e6)
		}
	}
	w.lastLayer = layerRun{
		feedMs:      median(feed),
		applyMs:     median(apply),
		deliverMs:   median(deliver),
		framesRatio: float64(fst1.FramesReceived-fst0.FramesReceived) / float64(fst1.EventsApplied-fst0.EventsApplied),
		gcPauseMs:   float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		walPerOp:    float64(w.leader.PersistStats().WALBytes-wal0) / float64(n),
	}
	return rs, nil
}

// upsert sends one POST /upsert to the leader and returns the sequence
// its response reports.
func (w *publishWatch) upsert(body []byte, buf *bytes.Buffer) (uint64, error) {
	resp, err := w.client.Post(w.lbase+"/upsert", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/upsert: status %d: %s", resp.StatusCode, buf.String())
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
		return 0, fmt.Errorf("/upsert: undecodable answer: %v", err)
	}
	return ack.Seq, nil
}

// catchUp waits until the follower has applied everything the leader
// has and the watcher shows the model's top-k.
func (w *publishWatch) catchUp() error {
	seq := w.leader.ChangeSeq()
	if err := waitFor(10*time.Second, func() bool { return w.follower.AppliedSeq() >= seq }); err != nil {
		return fmt.Errorf("follower at %d, leader at %d: %w", w.follower.AppliedSeq(), seq, err)
	}
	want := bruteKNN(w.modelPoints(), w.watchedAt, 0, watchK, "")
	if err := waitFor(10*time.Second, func() bool { return compareRanked(w.lastWatched(), want) == nil }); err != nil {
		return fmt.Errorf("/watch top-%d: %v: %w", watchK, compareRanked(w.lastWatched(), want), err)
	}
	return nil
}

// lastWatched is the top-k of the latest /watch event.
func (w *publishWatch) lastWatched() []ranked {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.events) == 0 {
		return nil
	}
	return w.events[len(w.events)-1].results
}

// deliveries finds, for each probe upsert of a run, the /watch event
// that first showed it, reading events from index from on. An enter
// shows as the probe at its own RTT; the leave after it as the first
// later event without the probe. An enter that no event shows was
// merged with its leave (the top-k changed and changed back before the
// watcher looked): it is counted in merged, and neither is timed.
func (w *publishWatch) deliveries(from int, ops []upsertOp) (at []time.Time, merged int) {
	w.mu.Lock()
	events := w.events[from:]
	w.mu.Unlock()
	at = make([]time.Time, len(ops))
	cur, shown := 0, false
	for i, op := range ops {
		if !op.probe {
			continue
		}
		if op.enter < 0 { // a leave
			if !shown {
				continue
			}
			for cur < len(events) && probeShown(events[cur].results) >= 0 {
				cur++
			}
			if cur < len(events) {
				at[i] = events[cur].at
			}
			continue
		}
		want := w.probeRTT(op.enter)
		j := cur
		for j < len(events) && math.Abs(probeShown(events[j].results)-want) > 1e-9 {
			j++
		}
		if shown = j < len(events); shown {
			cur, at[i] = j, events[j].at
		} else {
			merged++
		}
	}
	return at, merged
}

// probeShown is the probe's RTT in a top-k, or -1 when it is absent.
func probeShown(rs []ranked) float64 {
	for _, r := range rs {
		if r.id == probeID {
			return r.d
		}
	}
	return -1
}

// seenTimes collects when each sequence arrived on an in-process
// change subscription.
type seenTimes struct{ done chan map[uint64]time.Time }

func follow(sub *netcoord.ChangeSubscription) *seenTimes {
	s := &seenTimes{done: make(chan map[uint64]time.Time, 1)}
	go func() {
		m := map[uint64]time.Time{}
		for ev := range sub.C() { // closes after sub.Close
			m[ev.Seq] = time.Now()
		}
		s.done <- m
	}()
	return s
}

// wait returns the arrival times once the subscription has closed.
func (s *seenTimes) wait() map[uint64]time.Time { return <-s.done }

// layers reports the figures of the last traced run and times direct
// calls into the handler, the registry, the store and the frame
// encoder. Writes go to the same leader and into the model.
func (w *publishWatch) layers(tr *tracer, m map[string]metric) error {
	lr := w.lastLayer
	m["leader.feed_ms"] = metric{lr.feedMs, "ms"}
	m["follower.apply_ms"] = metric{lr.applyMs, "ms"}
	m["hub.deliver_ms"] = metric{lr.deliverMs, "ms"}
	m["follower.frames_ratio"] = metric{lr.framesRatio, "ratio"}
	m["runtime.gc_pause_ms"] = metric{lr.gcPauseMs, "ms"}
	m["persist.wal_bytes_per_upsert"] = metric{lr.walPerOp, "B"}

	const n = 2000
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = mustRequest(http.MethodPost, "/upsert", w.nextOp(opMix).body)
	}
	rw := &discardWriter{h: http.Header{}}
	bad := 0
	timeCalls(tr, "server.upsert", n, func(i int) {
		rw.reset()
		w.lsrv.ServeHTTP(rw, reqs[i])
		if rw.code != http.StatusOK {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("in-process POST /upsert: %d of %d not 200", bad, n)
	}
	// The workload's mix, then moves only: a move takes the index's
	// remove-and-insert path that a heartbeat skips.
	var uerr error
	for _, l := range []struct {
		kind  int
		layer string
	}{{opMix, "registry.upsert"}, {opMove, "registry.move"}} {
		batch := make([]netcoord.RegistryEntry, n)
		for i := range batch {
			p := w.nextOp(l.kind).p
			batch[i] = netcoord.RegistryEntry{ID: p.id, Coord: p.coordinate(), Error: p.err}
		}
		timeCalls(tr, l.layer, n, func(i int) { uerr = cmpErr(uerr, w.leader.UpsertBatch(batch[i:i+1])) })
	}
	if uerr != nil {
		return uerr
	}
	m["server.upsert_ns"] = metric{tr.medianNs("server.upsert"), "ns"}
	m["registry.upsert_ns"] = metric{tr.medianNs("registry.upsert"), "ns"}
	m["registry.move_ns"] = metric{tr.medianNs("registry.move"), "ns"}
	if err := w.storeLayers(tr, m); err != nil {
		return err
	}
	return nil
}

// storeLayers times persist.Store and wire.AppendFrame directly on a
// store of its own, with the model's entries.
func (w *publishWatch) storeLayers(tr *tracer, m map[string]metric) error {
	const n, syncEvery = 20000, 500
	pts := make([]point, 0, n)
	for _, p := range w.model {
		if len(pts) == n {
			break
		}
		pts = append(pts, p)
	}
	for len(pts) < n {
		pts = append(pts, pts[len(pts)%len(w.model)])
	}
	dir, err := os.MkdirTemp(w.o.work, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return err
	}
	now := time.Now()
	var serr error
	for i, p := range pts {
		e := persist.Entry{ID: p.id, Coord: p.coordinate(), Error: p.err, UpdatedAt: now}
		start := tr.now()
		st.LogUpsert(e, uint64(i+1), 0)
		tr.add("persist.log", 0, start, tr.now())
		if (i+1)%syncEvery == 0 {
			start = tr.now()
			serr = cmpErr(serr, st.Sync())
			tr.add("persist.sync", 0, start, tr.now())
		}
	}
	if err := errors.Join(serr, st.Close()); err != nil {
		return err
	}
	frames := make([]wire.Frame, n)
	for i, p := range pts {
		frames[i] = wire.Frame{Op: wire.OpUpsert, Seq: uint64(i + 1), PubNs: now.UnixNano(), ID: p.id, Coord: p.coordinate(), Error: p.err, UpdatedAtNs: now.UnixNano()}
	}
	buf := make([]byte, 0, 256)
	timeCalls(tr, "wire.frame_encode", n, func(i int) { buf, err = wire.AppendFrame(buf[:0], &frames[i]) })
	if err != nil {
		return err
	}
	m["persist.log_ns"] = metric{tr.medianNs("persist.log"), "ns"}
	m["persist.sync_ms"] = metric{tr.medianNs("persist.sync") / 1e6, "ms"}
	m["wire.frame_encode_ns"] = metric{tr.medianNs("wire.frame_encode"), "ns"}
	return nil
}

// modelPoints is the model as a slice, for brute-force queries.
func (w *publishWatch) modelPoints() []point {
	out := make([]point, 0, len(w.model))
	for _, p := range w.model {
		out = append(out, p)
	}
	return out
}

// check compares the follower with the leader and both with the
// model, the watcher's last top-k with a brute-force top-k over the
// model, and — after a graceful close — the reopened directory with
// the model. It closes the stack.
func (w *publishWatch) check() error {
	if w.leader == nil {
		return checkf("no leader to check")
	}
	if err := w.catchUp(); err != nil {
		return checkf("%v", err)
	}
	lents, lseq := w.leader.SnapshotWithSeq()
	fents, fseq := w.follower.SnapshotWithSeq()
	if err := sameEntries(lents, lseq, fents, fseq); err != nil {
		return checkf("follower differs from leader: %v", err)
	}
	if err := w.matchesModel(lents); err != nil {
		return checkf("leader differs from the model: %v", err)
	}
	if err := w.checkWatch(); err != nil {
		return err
	}
	w.closeServing()
	if err := w.leader.Close(); err != nil {
		return checkf("leader close: %v", err)
	}
	w.leader = nil
	reopened, err := netcoord.OpenPersistentRegistry(netcoord.PersistentRegistryConfig{Dir: w.dir})
	if err != nil {
		return checkf("reopen: %v", err)
	}
	defer reopened.Close()
	if err := w.matchesModel(reopened.Snapshot()); err != nil {
		return checkf("reopened directory differs from the model: %v", err)
	}
	return nil
}

// checkWatch requires one snapshot followed by deltas with increasing
// sequences on the watch stream, and a last top-k equal to a
// brute-force top-k over the model.
func (w *publishWatch) checkWatch() error {
	w.mu.Lock()
	events := slices.Clone(w.events)
	werr := w.watchErr
	w.mu.Unlock()
	if werr != nil {
		return checkf("%v", werr)
	}
	if len(events) == 0 {
		return checkf("no /watch events")
	}
	for i, e := range events {
		if kind := map[bool]string{true: "snapshot", false: "delta"}[i == 0]; e.kind != kind {
			return checkf("/watch event %d is a %q, want a %q", i, e.kind, kind)
		}
		if i > 0 && e.seq <= events[i-1].seq {
			return checkf("/watch event %d has seq %d after %d", i, e.seq, events[i-1].seq)
		}
	}
	want := bruteKNN(w.modelPoints(), w.watchedAt, 0, watchK, "")
	if err := compareRanked(events[len(events)-1].results, want); err != nil {
		return checkf("last /watch top-%d: %v", watchK, err)
	}
	return nil
}

func sortByID(es []netcoord.RegistryEntry) {
	slices.SortFunc(es, func(a, b netcoord.RegistryEntry) int { return strings.Compare(a.ID, b.ID) })
}

// sameEntries requires two snapshots to be identical.
func sameEntries(a []netcoord.RegistryEntry, aseq uint64, b []netcoord.RegistryEntry, bseq uint64) error {
	if aseq != bseq {
		return fmt.Errorf("seq %d vs %d", aseq, bseq)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d entries", len(a), len(b))
	}
	sortByID(a)
	sortByID(b)
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || !x.Coord.Equal(y.Coord) || x.Error != y.Error || x.Seq != y.Seq || x.UpdatedAt.UnixNano() != y.UpdatedAt.UnixNano() {
			return fmt.Errorf("entry %q: %+v vs %+v", x.ID, x, y)
		}
	}
	return nil
}

// matchesModel requires a snapshot to hold exactly the model's entries.
func (w *publishWatch) matchesModel(es []netcoord.RegistryEntry) error {
	if len(es) != len(w.model) {
		return fmt.Errorf("%d entries, model has %d", len(es), len(w.model))
	}
	for _, e := range es {
		p, ok := w.model[e.ID]
		if !ok {
			return fmt.Errorf("entry %q is not in the model", e.ID)
		}
		if !e.Coord.Equal(p.coordinate()) || e.Error != p.err {
			return fmt.Errorf("entry %q is %v/%g, model has %v/%g", e.ID, e.Coord, e.Error, p.coordinate(), p.err)
		}
	}
	return nil
}

// closeServing stops the watcher, the follower and both servers,
// leaving the leader open.
func (w *publishWatch) closeServing() {
	if w.watch != nil {
		w.watch.Body.Close()
		<-w.watchDone
		w.watch = nil
	}
	for _, s := range []*server.Server{w.fsrv, w.lsrv} {
		if s != nil {
			s.Stop()
		}
	}
	if w.fhs != nil {
		w.fhs.Close()
	}
	if w.follower != nil {
		w.follower.Close()
	}
	if w.lhs != nil {
		w.lhs.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.fsrv, w.lsrv, w.fhs, w.lhs, w.follower, w.client = nil, nil, nil, nil, nil, nil
}

func (w *publishWatch) close() error {
	w.closeServing()
	var err error
	if w.leader != nil {
		err = w.leader.Close()
		w.leader = nil
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
		w.dir = ""
	}
	return err
}
