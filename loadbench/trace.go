package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"tsppr/internal/engine"
	"tsppr/internal/obs"
	"tsppr/internal/rec"
	"tsppr/internal/rescache"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// Span names: one per layer boundary the replay calls across, plus the
// request span that parents them.
const (
	spRequest = iota
	spDecode
	spUserLSN
	spCacheGet
	spClone
	spEngine
	spCachePut
	spIngest
	spInvalidate
	spEncode
	numSpans
)

var spanNames = [numSpans]string{
	"request", "codec.decode", "shard.user_lsn", "rescache.get", "shard.window_clone",
	"engine.recommend", "rescache.put", "shard.ingest", "rescache.invalidate", "codec.encode",
}

// span is one timed call: nanoseconds since the replay started.
type span struct {
	name       uint8
	req        int32
	parent     int32 // index into the span list; -1 for a request span
	start, end int64
}

// tracer keeps spans in memory; a disabled tracer records nothing and
// costs one branch per boundary.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name uint8, req, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// Handler-shaped request and response types: the JSON the server's
// handlers decode and encode.
type recommendUserRequest struct {
	User  int  `json:"user"`
	N     int  `json:"n"`
	Omega *int `json:"omega,omitempty"`
}

type recommendResponse struct {
	Items    []int     `json:"items"`
	Scores   []float64 `json:"scores"`
	Degraded bool      `json:"degraded,omitempty"`
}

type consumeRequest struct {
	User int `json:"user"`
	Item int `json:"item"`
}

// replayer is an in-process stand-in for one rrc-server: a shard pool,
// an engine and a response cache configured like the server's.
type replayer struct {
	pool  *shard.Pool
	eng   *engine.Engine
	cache *rescache.Cache
	fx    *fixture
	cur   []int // per-user consume cursor
	tr    tracer
}

// replay runs ops through the handler call sequence and returns its
// wall time.
func (r *replayer) replay(ops []arrival) (time.Duration, error) {
	r.tr.t0 = time.Now()
	for i, a := range ops {
		req := int32(i)
		u := int(a.user)
		if a.kind == opRead || a.kind == opStep {
			if a.kind == opStep {
				if err := r.consume(req, u); err != nil {
					return 0, err
				}
			}
			if err := r.read(req, u); err != nil {
				return 0, err
			}
			continue
		}
		if err := r.consume(req, u); err != nil {
			return 0, err
		}
	}
	return time.Since(r.tr.t0), nil
}

func (r *replayer) read(req int32, u int) error {
	body := readBody(nil, u)
	root := r.tr.begin(spRequest, req, -1)
	sp := r.tr.begin(spDecode, req, root)
	var in recommendUserRequest
	err := json.Unmarshal(body, &in)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	omega := *in.Omega
	sp = r.tr.begin(spUserLSN, req, root)
	lsn, ok, err := r.pool.UserLSN(in.User)
	r.tr.end(sp)
	var resp recommendResponse
	hit := false
	if err == nil && ok {
		sp = r.tr.begin(spCacheGet, req, root)
		resp.Items, resp.Scores, hit = r.cache.Get(in.User, lsn, omega, in.N, []int{}, []float64{})
		r.tr.end(sp)
	}
	if !hit {
		epoch := r.cache.Epoch()
		sp = r.tr.begin(spClone, req, root)
		win, lsn, ok, err := r.pool.WindowCloneLSN(in.User)
		r.tr.end(sp)
		if err != nil || !ok {
			return fmt.Errorf("replay: no window for user %d (%v)", in.User, err)
		}
		items, _ := win.Snapshot() // the handler builds this History per request
		sp = r.tr.begin(spEngine, req, root)
		scored := r.eng.Recommend(&rec.Context{User: in.User, Window: win, History: items, Omega: omega}, in.N, nil)
		r.tr.end(sp)
		resp.Items, resp.Scores = make([]int, len(scored)), make([]float64, len(scored))
		for i, s := range scored {
			resp.Items[i], resp.Scores[i] = int(s.Item), s.Score
		}
		sp = r.tr.begin(spCachePut, req, root)
		r.cache.Put(epoch, in.User, lsn, omega, in.N, resp.Items, resp.Scores)
		r.tr.end(sp)
	}
	sp = r.tr.begin(spEncode, req, root)
	_, err = json.Marshal(resp)
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

func (r *replayer) consume(req int32, u int) error {
	test := r.fx.test[u]
	body := []byte(`{"user":` + strconv.Itoa(u) + `,"item":` + strconv.Itoa(int(test[r.cur[u]%len(test)])) + `}`)
	r.cur[u]++
	root := r.tr.begin(spRequest, req, -1)
	sp := r.tr.begin(spDecode, req, root)
	var in consumeRequest
	err := json.Unmarshal(body, &in)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin(spIngest, req, root)
	lsn, winLen, err := r.pool.Ingest(in.User, seq.Item(in.Item))
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.begin(spInvalidate, req, root)
	r.cache.InvalidateUser(in.User)
	r.tr.end(sp)
	sp = r.tr.begin(spEncode, req, root)
	_, err = json.Marshal(consumeReply{LSN: lsn, Window: winLen})
	r.tr.end(sp)
	r.tr.end(root)
	return err
}

// traceResult is the traced run's per-layer ledger.
type traceResult struct {
	selfNS         [numSpans]float64 // mean self time per span name
	remainderShare float64           // untraced share of request span time
	overheadRatio  float64           // traced ÷ untraced replay wall time
	recoverS       float64
	bytesPerSess   float64
	cloneAllocs    float64
	engineAllocs   float64
	hitRatio       float64
	spansFile      string
}

// openReplayer copies the fixture's events dir and opens a replayer
// over it like rrc-server would, timing the recovery and the heap it
// adds per session.
func openReplayer(fx *fixture, eng *engine.Engine, dir string, fsync wal.SyncPolicy, window int) (*replayer, float64, float64, error) {
	if err := copyTree(fx.events, dir); err != nil {
		return nil, 0, 0, err
	}
	reg := obs.NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := poolConfig(fx, window, fsync)
	cfg.Metrics = reg
	start := time.Now()
	pool, err := shard.Open(dir, cfg)
	recoverS := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	sessions := 0
	for _, st := range pool.Statuses() {
		sessions += st.Sessions
	}
	perSess := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(max(sessions, 1))
	replayEng := engine.New(eng.Model())
	replayEng.Instrument(reg)
	return &replayer{
		pool:  pool,
		eng:   replayEng,
		cache: rescache.New(rescache.Config{Metrics: reg}),
		fx:    fx,
		cur:   make([]int, fx.numUsers()),
	}, recoverS, perSess, nil
}

// traceRun replays ops three times, each on a fresh copy of the
// fixture: once to warm the process, once untraced and once traced. The
// per-layer ledger comes from the traced replay's spans; tracing
// overhead is its wall time over the untraced one's.
func traceRun(fx *fixture, eng *engine.Engine, ops []arrival, workDir, spansPath string, fsync wal.SyncPolicy, window int) (*traceResult, error) {
	res := &traceResult{spansFile: spansPath}
	var untraced time.Duration
	for i, name := range []string{"replay-warm", "replay-untraced"} {
		plain, _, _, err := openReplayer(fx, eng, filepath.Join(workDir, name), fsync, window)
		if err != nil {
			return nil, err
		}
		d, err := plain.replay(ops)
		if cerr := plain.pool.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if i == 1 {
			untraced = d
		}
	}
	r, recoverS, perSess, err := openReplayer(fx, eng, filepath.Join(workDir, "replay-traced"), fsync, window)
	if err != nil {
		return nil, err
	}
	defer r.pool.Close()
	res.recoverS, res.bytesPerSess = recoverS, perSess
	r.tr = tracer{on: true, spans: make([]span, 0, len(ops)*8)}
	traced, err := r.replay(ops)
	if err != nil {
		return nil, err
	}
	res.overheadRatio = traced.Seconds() / untraced.Seconds()
	cs := r.cache.Stats()
	if cs.Hits+cs.Misses > 0 {
		res.hitRatio = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	ledger(r.tr.spans, res)
	res.cloneAllocs, res.engineAllocs = measureAllocs(r, ops)
	return res, writeSpans(spansPath, r.tr.spans)
}

// ledger folds spans into mean self time per name. Layer spans have no
// children, so their self time is their duration; a request span's self
// time is the untraced remainder between its children.
func ledger(spans []span, res *traceResult) {
	var total [numSpans]float64
	var count [numSpans]int
	var reqTotal, childTotal float64
	for _, s := range spans {
		d := float64(s.end - s.start)
		total[s.name] += d
		count[s.name]++
		if s.parent < 0 {
			reqTotal += d
		} else {
			childTotal += d
		}
	}
	for i := range total {
		if count[i] > 0 {
			res.selfNS[i] = total[i] / float64(count[i])
		}
	}
	// The request spans' self time, recomputed as a mean for the ledger.
	if count[spRequest] > 0 {
		res.selfNS[spRequest] = (reqTotal - childTotal) / float64(count[spRequest])
	}
	if reqTotal > 0 {
		res.remainderShare = (reqTotal - childTotal) / reqTotal
	}
}

// measureAllocs counts heap allocations per window clone and per engine
// call over the replay's read users, outside any timing.
func measureAllocs(r *replayer, ops []arrival) (clone, eng float64) {
	var users []int
	for _, a := range ops {
		if a.kind != opConsume {
			users = append(users, int(a.user))
		}
		if len(users) == 2000 {
			break
		}
	}
	if len(users) == 0 {
		return 0, 0
	}
	wins := make([]*seq.Window, len(users))
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, u := range users {
		wins[i], _, _, _ = r.pool.WindowCloneLSN(u)
	}
	runtime.ReadMemStats(&m1)
	for i, u := range users {
		r.eng.Recommend(&rec.Context{User: u, Window: wins[i], Omega: readOmega}, readN, nil)
	}
	runtime.ReadMemStats(&m2)
	n := float64(len(users))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m2.Mallocs-m1.Mallocs) / n
}

func writeSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "req,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.req, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
