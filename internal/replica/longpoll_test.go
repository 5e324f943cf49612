package replica_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tsppr/internal/replica"
	"tsppr/internal/seq"
	"tsppr/internal/shard"
	"tsppr/internal/wal"
)

// countingSource counts NextLSN calls: one per long-poll wake-up.
type countingSource struct {
	replica.PoolSource
	polls atomic.Int64
}

func (c *countingSource) NextLSN(i int) (uint64, error) {
	c.polls.Add(1)
	return c.PoolSource.NextLSN(i)
}

type streamReply struct {
	lsns []uint64
	done time.Time
	err  error
}

func getStream(url string, from uint64) streamReply {
	resp, err := http.Get(fmt.Sprintf("%s/replica/stream?shard=0&from=%d", url, from))
	if err != nil {
		return streamReply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	done := time.Now()
	if err != nil {
		return streamReply{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return streamReply{err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
	}
	var lsns []uint64
	for r := bytes.NewReader(body); r.Len() > 0; {
		lsn, _, err := wal.ReadFrame(r, 0)
		if err != nil {
			return streamReply{err: err}
		}
		lsns = append(lsns, lsn)
	}
	return streamReply{lsns: lsns, done: done}
}

// TestReplicaStreamLongPollWakesOnCommit: a record committed while a
// caught-up follower is long-polling ships at once, not on the next
// poll tick, and an idle long-poll sleeps until Wait without polling.
func TestReplicaStreamLongPollWakesOnCommit(t *testing.T) {
	pool, err := shard.Open(t.TempDir(), poolCfg(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ingest(t, pool, 4, 10)

	const wait = 300 * time.Millisecond
	src := &countingSource{PoolSource: replica.PoolSource{Pool: pool}}
	srv := &replica.Server{Source: src, Meta: (&metaBox{}).get, Wait: wait}
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var lats []time.Duration
	for trial := 0; trial < 9; trial++ {
		from, err := pool.Shard(0).NextLSN()
		if err != nil {
			t.Fatal(err)
		}
		polls := src.polls.Load()
		replies := make(chan streamReply, 1)
		go func() { replies <- getStream(ts.URL, from) }()
		// The first NextLSN call means the handler holds the Appended
		// channel and is about to sleep on it.
		for src.polls.Load() == polls {
			time.Sleep(100 * time.Microsecond)
		}
		start := time.Now()
		if _, _, err := pool.Ingest(trial%4, seq.Item(trial)); err != nil {
			t.Fatal(err)
		}
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !slices.Equal(r.lsns, []uint64{from}) {
			t.Fatalf("trial %d: shipped lsns %v, want [%d]", trial, r.lsns, from)
		}
		lats = append(lats, r.done.Sub(start))
	}
	slices.Sort(lats)
	if med := lats[len(lats)/2]; med >= 5*time.Millisecond {
		t.Fatalf("median commit-to-ship latency %v, want well under a 10ms poll tick (all: %v)", med, lats)
	}

	from, _ := pool.Shard(0).NextLSN()
	polls := src.polls.Load()
	start := time.Now()
	r := getStream(ts.URL, from)
	if r.err != nil || len(r.lsns) != 0 {
		t.Fatalf("idle long-poll: %v, lsns %v", r.err, r.lsns)
	}
	if elapsed := r.done.Sub(start); elapsed < wait || elapsed > wait+time.Second {
		t.Fatalf("idle long-poll returned after %v, want Wait=%v", elapsed, wait)
	}
	if n := src.polls.Load() - polls; n != 1 {
		t.Fatalf("idle long-poll checked the horizon %d times, want 1", n)
	}
}
