package replica_test

// Tailer resume semantics — the property rrc-router's failover dance
// leans on: a standby process restarted mid-stream (as happens when a
// router-driven promotion bounces the fleet) resumes each shard from
// its persisted LSN, applies every event exactly once across both
// incarnations, and converges byte-identically. Plus the Retry-After
// audit rows for the replication server's own 503s.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/obs"
	"tsppr/internal/replica"
	"tsppr/internal/shard"
)

const appliedFamily = "rrc_replica_applied_total"

func TestReplicaTailerResumesFromPersistedLSN(t *testing.T) {
	const shards, users = 2, 6
	primaryPool, err := shard.Open(t.TempDir(), poolCfg(shards, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer primaryPool.Close()
	ingest(t, primaryPool, users, 60)

	// A hand-rolled primary so the test can (a) force small stream
	// batches — a restart is then mid-stream, not between streams — and
	// (b) record the first `from` each shard tailer asks for after the
	// restart: the literal resume position.
	box := &metaBox{}
	srv := &replica.Server{
		Source:   replica.PoolSource{Pool: primaryPool},
		Meta:     box.get,
		Wait:     50 * time.Millisecond,
		MaxBatch: 7,
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	var (
		recording atomic.Bool
		fromMu    sync.Mutex
		firstFrom = map[int]uint64{}
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if recording.Load() && r.URL.Path == "/replica/stream" {
			sh, _ := strconv.Atoi(r.URL.Query().Get("shard"))
			from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
			fromMu.Lock()
			if _, seen := firstFrom[sh]; !seen {
				firstFrom[sh] = from
			}
			fromMu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	followRoot := t.TempDir()
	followPool, err := shard.Open(followRoot, poolCfg(shards, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer followPool.Close()

	// First incarnation: stop as soon as a prefix has applied. The
	// 7-record batches mean this lands between stream responses with
	// work still outstanding, and the later total-applies assertion is
	// correct wherever it lands.
	reg1 := obs.NewRegistry()
	f1 := newFollower(t, ts.URL, followPool, followRoot, reg1)
	deadline := time.Now().Add(10 * time.Second)
	for reg1.SumCounters(appliedFamily) < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("first tailer applied only %d records", reg1.SumCounters(appliedFamily))
		}
		time.Sleep(time.Millisecond)
	}
	f1.Stop()
	applied1 := reg1.SumCounters(appliedFamily)

	// The persisted resume points: each shard's local WAL horizon.
	resume, err := replica.NextLSNs(followPool)
	if err != nil {
		t.Fatal(err)
	}

	// More primary traffic while the standby is down.
	ingest(t, primaryPool, users, 60)

	// Second incarnation over the same pool and root.
	recording.Store(true)
	reg2 := obs.NewRegistry()
	f2 := newFollower(t, ts.URL, followPool, followRoot, reg2)
	waitCaughtUp(t, f2)
	f2.Stop()

	fromMu.Lock()
	for sh := 0; sh < shards; sh++ {
		got, seen := firstFrom[sh]
		if !seen {
			t.Fatalf("shard %d: restarted tailer never streamed", sh)
		}
		if got != resume[sh] {
			t.Fatalf("shard %d resumed from %d, persisted LSN says %d", sh, got, resume[sh])
		}
	}
	fromMu.Unlock()

	// Exactly-once across the restart: applied counts only records that
	// actually landed, so any duplicate apply would overshoot 120 and a
	// skipped-record bug would undershoot.
	applied2 := reg2.SumCounters(appliedFamily)
	if total := applied1 + applied2; total != 120 {
		t.Fatalf("applied %d + %d = %d records across restart, want exactly 120", applied1, applied2, total)
	}
	if got, want := fingerprint(t, followPool), fingerprint(t, primaryPool); got != want {
		t.Fatalf("windows diverged across tailer restart:\n got %s\nwant %s", got, want)
	}
}

// failingSource errors every Source method — the shape of a pool whose
// shards are mid-restart.
type failingSource struct{}

func (failingSource) Shards() int                  { return 1 }
func (failingSource) NextLSN(int) (uint64, error)  { return 0, errors.New("shard restarting") }
func (failingSource) Appended(int) <-chan struct{} { return nil }
func (failingSource) Snapshot(int) (string, uint64, error) {
	return "", 0, errors.New("shard restarting")
}
func (failingSource) Read(int, uint64, int, func(uint64, []byte) error) (uint64, error) {
	return 0, errors.New("shard restarting")
}

// TestReplicaServerUnavailableCarriesRetryAfter pins the Retry-After
// audit for the replication plane: its 503s must be schedulable.
func TestReplicaServerUnavailableCarriesRetryAfter(t *testing.T) {
	box := &metaBox{}
	srv := &replica.Server{Source: failingSource{}, Meta: box.get, Wait: 10 * time.Millisecond}
	mux := http.NewServeMux()
	srv.Register(mux)
	for _, path := range []string{"/replica/stream?shard=0&from=1", "/replica/snapshot?shard=0"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503: %s", path, rr.Code, rr.Body.String())
		}
		if ra := rr.Result().Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: 503 without Retry-After", path)
		}
	}
}
