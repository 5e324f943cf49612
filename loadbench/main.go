// Command loadbench is the repository's end-to-end serving benchmark.
// It starts the real rrc-server (and, for routed-pair, rrc-router and
// a -follow standby) over a cached fixed-seed fixture, drives HTTP
// traffic in a closed-loop then an open-loop phase, checks every
// sampled answer against an in-process reference, and prints each
// metric by name with its unit. With -trace 1 it prints the per-layer
// ledger instead, from /metrics deltas and an in-process traced replay
// of the same op sequence.
//
// Run it through run.sh, which builds the fleet binaries first:
//
//	bash loadbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, metrics and what they should move.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"tsppr/internal/core"
	"tsppr/internal/engine"
	"tsppr/internal/wal"
)

// workload is one traffic mix against one fleet shape.
type workload struct {
	fleet fleetSpec
	mix   mix
	// rate is the open-loop offered rate in arrivals per second, fixed
	// once well under the closed-loop saturation measured on the commit
	// that introduced the benchmark (README.md says why not at half of
	// it); never re-derived from the code under test.
	rate float64
}

var workloads = map[string]workload{
	"hot-read": {
		fleet: fleetSpec{fsync: "interval"},
		mix:   mix{readShare: 0.95, zipfS: 1.0},
		rate:  2000,
	},
	"step-durable": {
		fleet: fleetSpec{fsync: "always"},
		mix:   mix{step: true},
		rate:  200,
	},
	"routed-pair": {
		fleet: fleetSpec{fsync: "interval", routed: true},
		mix:   mix{readShare: 0.95, zipfS: 1.0},
		rate:  800,
	},
}

const (
	setups = 3 // fleet set-ups per run; setup_s is their median
	// Phase windows: saturation_rps is the median over closed-loop
	// windows, each latency percentile the median over open-loop ones.
	closedWindow  = time.Second
	openWindow    = 7 * time.Second
	rereadPerNode = 128 // users re-read on every node after the run
	// The generator's lateness is send time minus the later of the due
	// time and the lane's previous reply. Wake-up jitter of a few ms
	// happens on a busy VM; a generator that is late on a typical
	// request, or by tens of ms, fell behind by itself and the run is
	// invalid.
	maxLateP50US = 1000
	maxLateP99US = 50000
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "loadbench: "+format+"\n", args...) }

func main() {
	var (
		name        = flag.String("workload", "", "hot-read, step-durable or routed-pair")
		seed        = flag.Uint64("seed", 1, "traffic seed: schedule, user draws and mix")
		seconds     = flag.Int("seconds", 30, "measured seconds per run (closed 30%, open 70%)")
		trace       = flag.Int("trace", 0, "1: print the per-layer ledger (traced replay + /metrics deltas) instead of end-to-end metrics")
		root        = flag.String("root", ".", "repository checkout")
		fixtureSeed = flag.Uint64("fixture-seed", 1, "seed of the generated data and trained model")
	)
	flag.Parse()
	// The generator's own collections would stall its lanes and be
	// charged to the fleet as latency; its heap is small, so collect rarely.
	debug.SetGCPercent(800)
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload {hot-read|step-durable|routed-pair} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	work := filepath.Join(absRoot, ".bench_build")
	b := &bench{
		name: *name, wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root:   absRoot,
		work:   work,
		binDir: filepath.Join(work, "bin"),
		runDir: filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		spec:   fixtureSpec{Seed: *fixtureSeed, Users: fixtureUsers, K: fixtureK, Window: fixtureWindow},
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		// Clean up before logging: with the parent gone, stderr may be a
		// broken pipe, and the write would end the process first.
		b.cleanup()
		logf("%v: fleet stopped", s)
		os.Exit(130)
	}()
	out, err := b.run()
	b.cleanup()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Print(out.human)
	fmt.Println(out.line)
	if !out.correct {
		os.Exit(1)
	}
}

type bench struct {
	name    string
	wl      workload
	seed    uint64
	seconds int
	trace   bool
	root    string
	work    string // .bench_build: binaries, fixture cache, runs, results
	binDir  string
	runDir  string // this run's fleet dirs and logs, removed on exit
	spec    fixtureSpec
}

func (b *bench) cleanup() {
	killAllFleets()
	_ = os.RemoveAll(b.runDir) // best effort on the way out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	human   string
	line    string
	correct bool
}

// result is the full record of one run, written next to the build.
type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Env      map[string]any    `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	// Printed holds measured metrics that BENCHMARK.json does not gate:
	// throughput and latency percentiles, whose run-to-run spread on a
	// shared VM is wider than any bound the benchmark may set (README.md).
	Printed   map[string]metric `json:"printed"`
	Notes     map[string]any    `json:"notes"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Fails     map[string]int    `json:"failures_by_class"`
	Correct   bool              `json:"correct"`
}

func (b *bench) run() (*output, error) {
	lanes := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	work := b.work
	if n := killLeftovers(b.binDir); n > 0 {
		logf("killed %d fleet process(es) left over from an earlier run", n)
	}
	removeStaleRuns(filepath.Join(work, "runs"))
	tw, err := waitTimeWaitDrained()
	if err != nil {
		return nil, err
	}
	fx, err := loadFixture(filepath.Join(work, "fixture"), b.binDir, b.spec)
	if err != nil {
		return nil, err
	}
	model, err := core.LoadFile(fx.model)
	if err != nil {
		return nil, err
	}
	if model.NumUsers() != fx.numUsers() || model.NumItems() != fx.numItems {
		return nil, fmt.Errorf("model has %d users/%d items, fixture streams %d/%d",
			model.NumUsers(), model.NumItems(), fx.numUsers(), fx.numItems)
	}
	ref := &reference{fx: fx, eng: engine.New(model), window: b.spec.Window}
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times: every fleet but the last is killed again.
	var setupS []float64
	var fl *fleet
	for g := 0; g < setups; g++ {
		f, s, err := startFleet(b.wl.fleet, fx, b.binDir, b.runDir, g)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w%s", g, err, tailLogs(b.runDir))
		}
		setupS = append(setupS, s)
		if g < setups-1 {
			f.kill()
		} else {
			fl = f
		}
	}
	catchupS := fl.catchupS

	picker := newUserPicker(fx.numUsers(), b.wl.mix.zipfS, b.seed, lanes)
	ld, err := newLoad(fx, fl.entry, lanes, b.spec.Window, b.wl.mix, picker)
	if err != nil {
		return nil, err
	}
	defer ld.close()
	closedD := time.Duration(b.seconds) * time.Second * 3 / 10
	openD := time.Duration(b.seconds)*time.Second - closedD
	satWin, closed := ld.closedLoop(b.seed, closedD, closedD/5, closedWindow)
	satRPS := median(satWin)

	arr := poissonSchedule(b.seed, b.wl.rate, openD, b.wl.mix, picker)
	probe, err := b.beginProbe(fl)
	if err != nil {
		return nil, err
	}
	open := ld.openLoop(arr)
	probed, err := probe.finish()
	if err != nil {
		return nil, err
	}
	rss, err := fl.rssMB()
	if err != nil {
		return nil, err
	}

	// Answer check, then a re-read of every node once followers caught up.
	all := newTally()
	all.merge(closed)
	all.merge(open)
	bad, stale, firstBad := ref.checkSamples(all.samples, ld.users, b.wl.fleet.routed)
	all.addFails(failAnswer, bad)
	all.addFails(failAck, checkLSNs(all.lsns))
	rereadBad, rereads, err := b.reread(fl, ref, ld.users)
	if err != nil {
		return nil, err
	}
	all.addFails(failReread, rereadBad)
	all.attempted += rereads
	fl.kill()
	fl = nil

	resDir := filepath.Join(work, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return nil, err
	}
	var tr *traceResult
	if b.trace {
		policy, err := wal.ParseSyncPolicy(b.wl.fleet.fsync)
		if err != nil {
			return nil, err
		}
		spans := filepath.Join(resDir, fmt.Sprintf("%s-seed%d.spans.csv", b.name, b.seed))
		if tr, err = traceRun(fx, ref.eng, arr[:min(len(arr), maxReplayOps)], b.runDir, spans, policy, b.spec.Window); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}

	// Validity: the generator's own lateness.
	sort.Float64s(open.late)
	lateP99, _, _ := tailPercentile(open.late, 0.99)
	lateP50, _, _ := tailPercentile(open.late, 0.5)
	logf("generator lateness p50 %.0fµs p99 %.0fµs", lateP50, lateP99)
	if lateP50 > maxLateP50US || lateP99 > maxLateP99US {
		return nil, fmt.Errorf("invalid run: generator lateness p50 %.0fµs p99 %.0fµs over %dµs/%dµs: the load generator, not the fleet, fell behind",
			lateP50, lateP99, maxLateP50US, maxLateP99US)
	}

	res := &result{
		Workload: b.name, Seed: b.seed, Trace: b.trace,
		Env: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"commit": commitID(b.root), "events_fs": fsType(b.runDir), "fsync": b.wl.fleet.fsync,
			"connections": lanes, "offered_rate": b.wl.rate, "fixture": b.spec.key(),
			"time_wait_at_start": tw,
		},
		Notes: map[string]any{
			"fixture_build_s": fx.buildS, "fixture_check_s": fx.checkS, "setup_s_runs": setupS,
			"generator_late_p50_us": lateP50, "generator_late_p99_us": lateP99, "stale_reads_accepted": stale,
			"closed_attempted": closed.attempted, "open_attempted": open.attempted,
			"open_arrivals": len(arr),
		},
		Attempted: all.attempted,
		Failed:    all.failed(),
		Fails:     all.fails,
		Metrics:   map[string]metric{},
		Printed:   map[string]metric{},
	}
	if firstBad != "" {
		res.Notes["first_mismatch"] = firstBad
	}
	res.Correct = res.Failed == 0
	var human strings.Builder
	if b.trace {
		b.perLayer(res, tr, probed, open, catchupS)
	} else {
		b.endToEnd(res, &human, median(setupS), satRPS, open, openD, probed, rss)
	}
	fmt.Fprintf(&human, "# %s seed=%d trace=%v attempted=%d failed=%d correct=%v env=%v\n",
		b.name, b.seed, b.trace, res.Attempted, res.Failed, res.Correct, res.Env)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(&human, "%s = %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(res.Printed) {
		fmt.Fprintf(&human, "%s = %.6g %s (not gated)\n", k, res.Printed[k].Value, res.Printed[k].Unit)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d.json", b.name, b.seed, boolInt(b.trace))), raw, 0o644); err != nil {
		return nil, err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &output{human: human.String(), line: string(line), correct: res.Correct}, nil
}

// maxReplayOps caps the traced replay's length.
const maxReplayOps = 20000

// endToEnd fills the user-visible metrics.
func (b *bench) endToEnd(res *result, human *strings.Builder, setupS, satRPS float64, open *tally, openD time.Duration, p *probed, rss float64) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", setupS, "s")
	res.Printed["saturation_rps"] = metric{Value: satRPS, Unit: "req/s"}
	nWin := max(1, int(openD/openWindow))
	for _, x := range []struct {
		prefix string
		lat    []timed
	}{{"recommend", open.readLat}, {"consume", open.consumeLat}} {
		whole := make([]float64, len(x.lat))
		for i, t := range x.lat {
			whole[i] = t.us
		}
		sort.Float64s(whole)
		for _, p := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			name := x.prefix + "_" + p.name + "_us"
			v, q, n := windowed(x.lat, openWindow, nWin, p.q)
			wv, wq, _ := tailPercentile(whole, p.q)
			censored := ""
			if math.IsInf(v, 1) {
				v, censored = us(reqTimeout), " (failures: censored at the request timeout)"
			}
			res.Printed[name] = metric{Value: v, Unit: "us"}
			res.Notes[name+"_whole_phase"] = map[string]any{"value": wv, "quantile": wq, "samples": n}
			fmt.Fprintf(human, "%s: median over %d windows of quantile %.4f; %d samples; whole phase q%.4f = %.6g us%s\n",
				name, nWin, q, n, wq, wv, censored)
		}
	}
	put("fleet_cpu_us_per_op", p.cpuS*1e6/float64(max(open.ok, 1)), "us/op")
	put("fleet_rss_mb", rss, "MB")
	res.Printed["failed_share"] = metric{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "failed/attempted"}
	fmt.Fprintf(human, "failed_share: %d failed of %d attempted, by class %v\n", res.Failed, res.Attempted, res.Fails)
}

// perLayer fills the ledger: S = /metrics or /stats deltas over the
// open-loop phase, T = the traced replay, C = the client.
func (b *bench) perLayer(res *result, tr *traceResult, p *probed, open *tally, catchupS float64) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	nodes := p.nodes
	const rec, con = `endpoint="/recommend/user"`, `endpoint="/consume"`
	hRec := nodes.histMean("rrc_http_request_seconds", rec) * 1e6
	hCon := nodes.histMean("rrc_http_request_seconds", con) * 1e6
	put("rrc-server.handler_us.recommend_user", hRec, "us")
	put("rrc-server.handler_us.consume", hCon, "us")
	put("rrc-server.outside_handler_us", mean(open.readSvc)-hRec, "us")
	put("codec.decode_ns", tr.selfNS[spDecode], "ns")
	put("codec.encode_ns", tr.selfNS[spEncode], "ns")
	hits, misses := nodes.sum("rrc_rescache_hits_total"), nodes.sum("rrc_rescache_misses_total")
	put("rescache.hit_ratio", ratio(hits, hits+misses), "ratio")
	consumes := p.primary.sum("rrc_http_requests_total", con)
	put("rescache.invalidations_per_consume", ratio(p.primary.sum("rrc_rescache_invalidations_total"), consumes), "ratio")
	put("rescache.get_ns", tr.selfNS[spCacheGet], "ns")
	put("rescache.put_ns", tr.selfNS[spCachePut], "ns")
	put("shard.user_lsn_ns", tr.selfNS[spUserLSN], "ns")
	put("shard.window_clone_ns", tr.selfNS[spClone], "ns")
	put("shard.window_clone_allocs", tr.cloneAllocs, "count")
	put("shard.ingest_us", tr.selfNS[spIngest]/1e3, "us")
	put("sessions.bytes_per_session", tr.bytesPerSess, "B")
	put("shard.recover_s", tr.recoverS, "s")
	put("wal.append_us", p.primary.histMean("rrc_wal_append_seconds")*1e6, "us")
	put("wal.fsync_us", p.primary.histMean("rrc_wal_fsync_seconds")*1e6, "us")
	put("wal.fsyncs_per_append", ratio(p.fsyncs, p.appends), "ratio")
	put("engine.recommend_us", nodes.histMean("rrc_engine_recommend_seconds")*1e6, "us")
	put("engine.candidates_mean", nodes.histMean("rrc_engine_candidates"), "count")
	put("engine.allocs_per_op", tr.engineAllocs, "count")
	var ovRec, ovCon, dials, retries, lagMax, appliedPerAck float64
	if b.wl.fleet.routed {
		r := p.router
		ovRec = r.histMean("rrc_router_request_seconds", rec)*1e6 - hRec
		ovCon = r.histMean("rrc_router_request_seconds", con)*1e6 - hCon
		kreq := r.sum("rrc_router_requests_total") / 1000
		dials = ratio(float64(p.dials), kreq)
		retries = ratio(r.sum("rrc_router_retries_total"), kreq)
		lagMax = p.lagMax
		appliedPerAck = ratio(p.follower.sum("rrc_replica_applied_total"), float64(len(open.consumeSvc)))
	}
	put("router.overhead_us.recommend_user", ovRec, "us")
	put("router.overhead_us.consume", ovCon, "us")
	put("router.upstream_dials_per_kreq", dials, "1/kreq")
	put("router.retries_per_kreq", retries, "1/kreq")
	put("replica.lag_records_max", lagMax, "records")
	put("replica.applied_per_ack", appliedPerAck, "ratio")
	put("replica.catchup_s", catchupS, "s")
	put("trace.remainder_share", tr.remainderShare, "share")
	put("trace.overhead_ratio", tr.overheadRatio, "ratio")
	res.Notes["trace_spans_file"] = tr.spansFile
	res.Notes["trace_replay_hit_ratio"] = tr.hitRatio
	self := map[string]float64{}
	for i, n := range spanNames {
		self[n+"_self_ns"] = tr.selfNS[i]
	}
	res.Notes["trace_mean_self_ns"] = self
}

// probe brackets the open-loop phase: CPU, /metrics and /stats of every
// process, upstream connections, and (traced runs) follower lag sampled
// while the phase runs.
type probe struct {
	fl      *fleet
	cpu0    float64
	before  []scrape
	stats0  [2]float64 // appends, fsyncs
	ports   map[int]bool
	conns0  map[int]bool
	stopLag chan struct{}
	lagDone chan float64
}

type probed struct {
	cpuS                     float64
	nodes, primary, follower scrape
	router                   scrape
	appends, fsyncs          float64
	dials                    int
	lagMax                   float64
}

func (b *bench) beginProbe(fl *fleet) (*probe, error) {
	p := &probe{fl: fl, ports: map[int]bool{}}
	for _, pr := range fl.procs {
		s, err := fetchMetrics(pr.url)
		if err != nil {
			return nil, err
		}
		p.before = append(p.before, s)
	}
	var err error
	if p.stats0, err = walStats(fl.nodes[0].url); err != nil {
		return nil, err
	}
	if fl.routed() {
		for _, n := range fl.nodes {
			p.ports[portOf(n.url)] = true
		}
		if p.conns0, err = clientPorts(p.ports); err != nil {
			return nil, err
		}
		if b.trace {
			p.stopLag, p.lagDone = make(chan struct{}), make(chan float64, 1)
			go sampleLag(fl.nodes[1].url, p.stopLag, p.lagDone)
		}
	}
	// CPU last, so the probe's own scrapes fall outside the window.
	p.cpu0, err = fl.cpu()
	return p, err
}

func (p *probe) finish() (*probed, error) {
	cpu1, err := p.fl.cpu()
	if err != nil {
		return nil, err
	}
	out := &probed{cpuS: cpu1 - p.cpu0}
	if p.stopLag != nil {
		close(p.stopLag)
		out.lagMax = <-p.lagDone
	}
	if p.conns0 != nil {
		conns, err := clientPorts(p.ports)
		if err != nil {
			return nil, err
		}
		for port := range conns {
			if !p.conns0[port] {
				out.dials++
			}
		}
	}
	var nodes []scrape
	for i, pr := range p.fl.procs {
		s, err := fetchMetrics(pr.url)
		if err != nil {
			return nil, err
		}
		d := delta(p.before[i], s)
		switch {
		case pr.name == "rrc-router":
			out.router = d
		default:
			nodes = append(nodes, d)
		}
	}
	out.nodes = addScrapes(nodes...)
	out.primary = nodes[0]
	out.follower = scrape{}
	if len(nodes) > 1 {
		out.follower = nodes[1]
	}
	st, err := walStats(p.fl.nodes[0].url)
	if err != nil {
		return nil, err
	}
	out.appends, out.fsyncs = st[0]-p.stats0[0], st[1]-p.stats0[1]
	return out, nil
}

// sampleLag polls a follower's replication lag every 100ms until stop
// closes, and sends the largest value seen.
func sampleLag(url string, stop <-chan struct{}, done chan<- float64) {
	var m float64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- m
			return
		case <-tick.C:
			if s, err := fetchMetrics(url); err == nil {
				m = math.Max(m, s.sum("rrc_replica_lag_records"))
			}
		}
	}
}

func walStats(url string) ([2]float64, error) {
	var st struct {
		Appends int64 `json:"appends"`
		Fsyncs  int64 `json:"fsyncs"`
	}
	if _, err := getJSON(url+"/stats", &st); err != nil {
		return [2]float64{}, err
	}
	return [2]float64{float64(st.Appends), float64(st.Fsyncs)}, nil
}

// reread asks every node directly, once followers show lag 0, for the
// users with the most consumes, and compares with the reference after
// all of their acknowledged consumes.
func (b *bench) reread(fl *fleet, ref *reference, users []userState) (bad, n int, err error) {
	deadline := time.Now().Add(30 * time.Second)
	for !fl.followerCaughtUp() {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("follower did not catch up within 30s after the run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ids := rereadUsers(users, rereadPerNode)
	for _, node := range fl.nodes {
		ld, err := newLoad(ref.fx, node.url, 1, b.spec.Window, mix{}, nil)
		if err != nil {
			return 0, 0, err
		}
		l := ld.lanes[0]
		for _, u := range ids {
			l.body = readBody(l.body[:0], u)
			var rep recommendReply
			n++
			want := ref.answers(u, users[u].acked, len(users[u].acked))[len(users[u].acked)]
			if l.post("/recommend/user", &rep) != "" || rep.Degraded || !want.equal(rep.Items, rep.Scores) {
				bad++
			}
		}
		ld.close()
	}
	return bad, n, nil
}

// commitID names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of the Go sources.
func commitID(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	return "src-sha256:" + sourceDigest(root)
}

func sourceDigest(root string) string {
	files := map[string]string{}
	for _, d := range []string{"cmd", "internal"} {
		if h, err := hashTree(filepath.Join(root, d)); err == nil {
			for k, v := range h {
				files[d+"/"+k] = v
			}
		}
	}
	var buf bytes.Buffer
	for _, k := range sortedKeys(files) {
		fmt.Fprintf(&buf, "%s %s\n", files[k], k)
	}
	h := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	return h[:16]
}

func tailLogs(dir string) string {
	var sb strings.Builder
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		fmt.Fprintf(&sb, "\n--- %s\n%s", filepath.Base(path), strings.Join(lines[max(0, len(lines)-5):], "\n"))
	}
	return sb.String()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
