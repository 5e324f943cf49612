package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"tsppr/internal/seq"
	"tsppr/internal/shard"
)

// Request parameters of every read: the paper's top-10 at Ω = 10.
const (
	readN       = 10
	readOmega   = 10
	reqTimeout  = 5 * time.Second
	sampleEvery = 4 // record every 4th read answer of a lane for the check
)

// Failure classes, reported by name.
const (
	failTransport = "transport"
	failTimeout   = "timeout"
	fail4xx       = "http_4xx"
	fail5xx       = "http_5xx"
	failDecode    = "decode"
	failDegraded  = "degraded_answer"
	failAck       = "consume_ack"
	failAnswer    = "answer_mismatch"
	failReread    = "reread_mismatch"
)

// userState is what the load has done to each user; each user belongs
// to exactly one lane, which alone writes its entry while load runs.
type userState struct {
	cursor  int        // consumes attempted: index into the held-out suffix
	acked   []seq.Item // acknowledged consumes, in order
	tainted bool       // a consume's outcome is unknown (no reply)
}

// readSample is one recorded /recommend/user answer and the number of
// the user's acknowledged consumes that preceded it.
type readSample struct {
	user   int
	k      int
	items  []int
	scores []float64
}

type lsnObs struct {
	shard int
	lsn   uint64
}

// tally accumulates one lane's outcomes over a phase.
type tally struct {
	attempted, ok int
	fails         map[string]int
	readLat       []timed // µs from due time; +Inf for a failure
	consumeLat    []timed
	readSvc       []float64 // µs from send to reply, successes only
	consumeSvc    []float64
	late          []float64 // µs the generator sent after it could have
	samples       []readSample
	lsns          []lsnObs
}

// timed is one latency sample and its arrival's due offset, which
// places it in a window of the phase.
type timed struct {
	at time.Duration
	us float64
}

func newTally() *tally { return &tally{fails: map[string]int{}} }

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	for k, v := range o.fails {
		t.fails[k] += v
	}
	t.readLat = append(t.readLat, o.readLat...)
	t.consumeLat = append(t.consumeLat, o.consumeLat...)
	t.readSvc = append(t.readSvc, o.readSvc...)
	t.consumeSvc = append(t.consumeSvc, o.consumeSvc...)
	t.late = append(t.late, o.late...)
	t.samples = append(t.samples, o.samples...)
	t.lsns = append(t.lsns, o.lsns...)
}

func (t *tally) addFails(class string, n int) {
	if n > 0 {
		t.fails[class] += n
	}
}

func (t *tally) failed() int {
	n := 0
	for _, v := range t.fails {
		n += v
	}
	return n
}

// load is the shared state of one benchmark run's traffic.
type load struct {
	fx      *fixture
	users   []userState
	window  int
	baseLSN []uint64 // per shard: LSNs at or below were seeded
	lanes   []*lane
	mix     mix
	picker  *userPicker
}

// lane is one connection and the users pinned to it.
type lane struct {
	ld      *load
	id      int
	conn    *httpConn
	body    []byte
	rep     recommendReply // reused: json.Unmarshal refills its slices in place
	reads   int
	lastLSN map[int]uint64
	t       *tally
	sleep   *sleeper
}

func newLoad(fx *fixture, base string, lanes, window int, m mix, picker *userPicker) (*load, error) {
	ld := &load{fx: fx, users: make([]userState, fx.numUsers()), window: window, baseLSN: fx.shardLSN, mix: m, picker: picker}
	for i := 0; i < lanes; i++ {
		sl, err := newSleeper()
		if err != nil {
			ld.close()
			return nil, err
		}
		ld.lanes = append(ld.lanes, &lane{ld: ld, id: i, conn: newHTTPConn(base), lastLSN: map[int]uint64{}, sleep: sl})
	}
	return ld, nil
}

func (ld *load) close() {
	for _, l := range ld.lanes {
		l.conn.close()
		l.sleep.close()
	}
}

// post sends l.body as one JSON request and decodes a 200 reply into
// out. It returns the failure class, or "" on success.
func (l *lane) post(path string, out any) string {
	status, body, err := l.conn.post(path, l.body, reqTimeout)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return failTimeout
		}
		return failTransport
	}
	switch {
	case status >= 500:
		return fail5xx
	case status != http.StatusOK:
		return fail4xx
	}
	if json.Unmarshal(body, out) != nil {
		return failDecode
	}
	return ""
}

type recommendReply struct {
	Items    []int     `json:"items"`
	Scores   []float64 `json:"scores"`
	Degraded bool      `json:"degraded"`
}

type consumeReply struct {
	LSN    uint64 `json:"lsn"`
	Window int    `json:"window"`
}

// readBody appends the /recommend/user request for user u to b.
func readBody(b []byte, u int) []byte {
	b = strconv.AppendInt(append(b, `{"user":`...), int64(u), 10)
	b = strconv.AppendInt(append(b, `,"n":`...), readN, 10)
	b = strconv.AppendInt(append(b, `,"omega":`...), readOmega, 10)
	return append(b, '}')
}

// read sends one /recommend/user and returns whether it succeeded and
// its service time.
func (l *lane) read(u int) (bool, time.Duration) {
	l.body = readBody(l.body[:0], u)
	rep := &l.rep
	rep.Degraded = false
	l.t.attempted++
	start := time.Now()
	class := l.post("/recommend/user", rep)
	svc := time.Since(start)
	if class == "" && rep.Degraded {
		class = failDegraded
	}
	if class != "" {
		l.t.fails[class]++
		return false, svc
	}
	l.t.ok++
	l.reads++
	if l.reads%sampleEvery == 0 && !l.ld.users[u].tainted {
		l.t.samples = append(l.t.samples, readSample{user: u, k: len(l.ld.users[u].acked),
			items: append([]int(nil), rep.Items...), scores: append([]float64(nil), rep.Scores...)})
	}
	return true, svc
}

// consume sends the user's next held-out event and checks its ack: a
// per-shard LSN above every LSN this lane saw on that shard (and above
// the seeded fixture), and the window length the reference expects.
func (l *lane) consume(u int) (bool, time.Duration) {
	st := &l.ld.users[u]
	test := l.ld.fx.test[u]
	item := test[st.cursor%len(test)]
	st.cursor++
	l.body = strconv.AppendInt(append(l.body[:0], `{"user":`...), int64(u), 10)
	l.body = strconv.AppendInt(append(l.body, `,"item":`...), int64(item), 10)
	l.body = append(l.body, '}')
	var rep consumeReply
	l.t.attempted++
	start := time.Now()
	class := l.post("/consume", &rep)
	svc := time.Since(start)
	if class != "" {
		if class != fail4xx {
			st.tainted = true // it may or may not have been applied
		}
		l.t.fails[class]++
		return false, svc
	}
	sh := shard.UserShard(u, fixtureShards)
	wantWin := min(l.ld.window, len(l.ld.fx.seeded[u])+len(st.acked)+1)
	if rep.LSN <= l.lastLSN[sh] || rep.LSN <= l.ld.baseLSN[sh] || rep.Window != wantWin {
		st.tainted = true
		l.t.fails[failAck]++
		return false, svc
	}
	l.lastLSN[sh] = rep.LSN
	l.t.lsns = append(l.t.lsns, lsnObs{shard: sh, lsn: rep.LSN})
	st.acked = append(st.acked, item)
	l.t.ok++
	return true, svc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var inf = math.Inf(1)

// closedLoop drives every lane back to back for d. OK responses that
// complete after the first warm share of d are counted in windows of
// win; it returns OK responses per second of each window, and the
// phase's tally.
func (ld *load) closedLoop(seed uint64, d, warm, win time.Duration) ([]float64, *tally) {
	start := time.Now()
	deadline, warmEnd := start.Add(d), start.Add(warm)
	nWin := max(1, int((d-warm)/win))
	counted := make([][]int, len(ld.lanes))
	for i := range counted {
		counted[i] = make([]int, nWin)
	}
	var wg sync.WaitGroup
	for _, l := range ld.lanes {
		l.t = newTally()
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			s := newClosedStream(seed, l.id, ld.mix, ld.picker)
			for time.Now().Before(deadline) {
				u, kind := s.next()
				n := 0
				switch kind {
				case opRead:
					if ok, _ := l.read(u); ok {
						n++
					}
				case opConsume:
					if ok, _ := l.consume(u); ok {
						n++
					}
				case opStep:
					if ok, _ := l.consume(u); ok {
						n++
						if ok, _ := l.read(u); ok {
							n++
						}
					}
				}
				if now := time.Now(); now.After(warmEnd) && now.Before(deadline) {
					counted[l.id][min(int(now.Sub(warmEnd)/win), nWin-1)] += n
				}
			}
		}(l)
	}
	wg.Wait()
	total := newTally()
	rps := make([]float64, nWin)
	span := (d - warm).Seconds() / float64(nWin)
	for i, l := range ld.lanes {
		total.merge(l.t)
		for w, n := range counted[i] {
			rps[w] += float64(n) / span
		}
	}
	return rps, total
}

// openLoop sends the arrivals on schedule: each lane sends its users'
// arrivals in due order, and each latency runs from the due time, so a
// stall is charged to every request queued behind it. A step's read is
// due when its consume is acknowledged.
func (ld *load) openLoop(arr []arrival) *tally {
	perLane := make([][]arrival, len(ld.lanes))
	for _, a := range arr {
		i := ld.picker.lane(int(a.user))
		perLane[i] = append(perLane[i], a)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range ld.lanes {
		l.t = newTally()
		wg.Add(1)
		go func(l *lane, arr []arrival) {
			defer wg.Done()
			free := start // when the lane could next send
			for _, a := range arr {
				due := start.Add(a.due)
				l.sleep.until(due)
				send := time.Now()
				l.t.late = append(l.t.late, us(send.Sub(later(due, free))))
				u := int(a.user)
				switch a.kind {
				case opRead:
					ok, svc := l.read(u)
					l.t.readLat = append(l.t.readLat, timed{a.due, latency(ok, time.Since(due))})
					if ok {
						l.t.readSvc = append(l.t.readSvc, us(svc))
					}
				case opConsume, opStep:
					ok, svc := l.consume(u)
					acked := time.Now()
					l.t.consumeLat = append(l.t.consumeLat, timed{a.due, latency(ok, acked.Sub(due))})
					if ok {
						l.t.consumeSvc = append(l.t.consumeSvc, us(svc))
					}
					if a.kind == opStep {
						if !ok {
							// The read never went out: it misses its limit too.
							l.t.readLat = append(l.t.readLat, timed{a.due, inf})
							l.t.attempted++
							l.t.fails["step_read_skipped"]++
							break
						}
						ok, svc := l.read(u)
						l.t.readLat = append(l.t.readLat, timed{a.due, latency(ok, time.Since(acked))})
						if ok {
							l.t.readSvc = append(l.t.readSvc, us(svc))
						}
					}
				}
				free = time.Now()
			}
		}(l, perLane[l.id])
	}
	wg.Wait()
	total := newTally()
	for _, l := range ld.lanes {
		total.merge(l.t)
	}
	return total
}

// sleeper waits on a timerfd registered with the runtime's network
// poller. The runtime's own timers wake at millisecond granularity when
// the process is idle, which would charge up to 1ms of the generator's
// lateness to every open-loop latency; a timerfd wakes the poller at
// the kernel's hrtimer precision without holding a thread or a P.
type sleeper struct {
	f  *os.File
	fd uintptr
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// until blocks the calling goroutine until t.
func (s *sleeper) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec: zero interval, then the relative expiry.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	_, _ = s.f.Read(buf[:]) // an error only wakes the lane early; its lateness stays measured
}

func (s *sleeper) close() { s.f.Close() }

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func latency(ok bool, d time.Duration) float64 {
	if !ok {
		return inf
	}
	return us(d)
}
