package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"tsppr/internal/faultinject"
)

type indexedRecord struct {
	lsn     uint64
	payload string
}

// checkReadFrom compares ReadFrom(from, batch) against the matching slice
// of a full ScanDir of dir, for every from up to one past the commit
// horizon and batch sizes on either side of the index stride.
func checkReadFrom(t *testing.T, l *Log, dir string) {
	t.Helper()
	var all []indexedRecord
	if _, err := ScanDir(dir, 0, func(lsn uint64, p []byte) error {
		all = append(all, indexedRecord{lsn, string(p)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	oldest, limit := l.OldestLSN(), l.NextLSN()
	for from := uint64(1); from <= limit+1; from++ {
		for _, batch := range []int{1, indexStride - 1, indexStride + 1, DefaultReadBatch} {
			var got []indexedRecord
			next, err := l.ReadFrom(from, batch, func(lsn uint64, p []byte) error {
				got = append(got, indexedRecord{lsn, string(p)})
				return nil
			})
			if from < oldest {
				if !errors.Is(err, ErrPruned) {
					t.Fatalf("ReadFrom(%d) below oldest %d: %v, want ErrPruned", from, oldest, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("ReadFrom(%d, %d): %v", from, batch, err)
			}
			i := sort.Search(len(all), func(i int) bool { return all[i].lsn >= from })
			want := all[i:min(i+batch, len(all))]
			wantNext := from
			if len(want) > 0 {
				wantNext = want[len(want)-1].lsn + 1
			}
			if !slices.Equal(got, want) || next != wantNext {
				t.Fatalf("ReadFrom(%d, %d) = %d records resuming at %d, want %d resuming at %d (got %v)",
					from, batch, len(got), next, len(want), wantNext, got)
			}
		}
	}
}

// checkMarks verifies every segment's in-memory offset index against a
// fresh scan of its file.
func checkMarks(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sg := range l.segments {
		res, err := scanSegment(filepath.Join(l.dir, sg.name), l.opts.MaxRecordBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sg.marks, res.marks) {
			t.Fatalf("%s: marks %v, file says %v", sg.name, sg.marks, res.marks)
		}
	}
}

// segmentBases returns the first LSN of every retained segment.
func segmentBases(l *Log) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []uint64
	for _, sg := range l.segments {
		out = append(out, sg.first)
	}
	return out
}

// corruptRecord flips one payload bit of record idx in the segment
// starting at first. Records written by appendN are all 16 bytes.
func corruptRecord(t *testing.T, dir string, first uint64, idx int) {
	t.Helper()
	path := filepath.Join(dir, segmentName(first))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[16*idx+headerSize+3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadFromMatchesScanDir is the positioned-read property: seeking
// through the offset index must deliver exactly what a full scan does,
// across rotation, truncation, pruning, reopening and quarantined
// corruption.
func TestReadFromMatchesScanDir(t *testing.T) {
	dir := t.TempDir()
	// 16-byte records, so a segment rotates after 157 of them: each
	// segment spans two full strides and a partial third.
	opts := Options{SegmentBytes: 2500, Sync: SyncNever}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	step := func(name string) {
		t.Helper()
		checkMarks(t, l)
		checkReadFrom(t, l, dir)
		if t.Failed() {
			t.Fatalf("after %s", name)
		}
	}

	appendN(t, l, 0, 500)
	if n := len(segmentBases(l)); n < 3 {
		t.Fatalf("need ≥3 segments, got %d", n)
	}
	step("appends across rotation")

	// Cut mid-stride inside a non-final segment: later segments go, and
	// the cut segment becomes the active one.
	cut := segmentBases(l)[1] + indexStride + 20
	if err := l.TruncateFrom(cut); err != nil {
		t.Fatal(err)
	}
	step("mid-stride truncate")
	appendN(t, l, int(cut-1), 200)
	step("re-append after mid-stride truncate")

	// Cut exactly on a mark in the active segment, then re-append.
	bases := segmentBases(l)
	active := bases[len(bases)-1]
	if l.NextLSN() <= active+indexStride {
		t.Fatalf("active segment at %d too short for a stride cut (next %d)", active, l.NextLSN())
	}
	if err := l.TruncateFrom(active + indexStride); err != nil {
		t.Fatal(err)
	}
	step("on-mark truncate")
	appendN(t, l, int(active+indexStride-1), 150)
	step("re-append after on-mark truncate")

	if err := l.Prune(segmentBases(l)[1] - 1); err != nil {
		t.Fatal(err)
	}
	if l.OldestLSN() == 1 {
		t.Fatal("prune removed nothing")
	}
	step("prune")

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	step("reopen")

	// Quarantine one record on a mark and one between marks.
	bases = segmentBases(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	corruptRecord(t, dir, bases[0], indexStride)
	corruptRecord(t, dir, bases[1], indexStride+30)
	opts.Corrupt = CorruptSkip
	if l, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().SkippedCorrupt; got != 2 {
		t.Fatalf("SkippedCorrupt = %d, want 2", got)
	}
	step("quarantined records")
	appendN(t, l, int(l.NextLSN()-1), 70)
	step("appends after quarantine")
}

// TestReadFromHaltsOnCorruptionAfterOpen: under CorruptHalt a record
// that fails its CRC after Open is refused when a read covers it, also
// when the read seeks straight onto it through the index.
func TestReadFromHaltsOnCorruptionAfterOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 3*indexStride)
	corruptRecord(t, dir, 1, indexStride) // LSN indexStride+1, on a mark

	nop := func(uint64, []byte) error { return nil }
	for _, from := range []uint64{1, indexStride, indexStride + 1} {
		if _, err := l.ReadFrom(from, 0, nop); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadFrom(%d) over the corrupt record: %v, want ErrCorrupt", from, err)
		}
	}
	if _, err := l.ReadFrom(indexStride+2, 0, nop); err != nil {
		t.Fatalf("ReadFrom past the corrupt record: %v", err)
	}
}

// TestTornAppendLeavesNoMark: a failed append that heals never indexes
// the record it tore, so the retry lands on the right mark.
func TestTornAppendLeavesNoMark(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, indexStride) // the next record starts the second stride

	faultinject.Arm("wal.append", faultinject.Plan{Mode: faultinject.ShortWrite, Count: 1})
	if _, err := l.Append([]byte("doomed-record")); err == nil {
		t.Fatal("short write did not surface")
	}
	checkMarks(t, l)
	appendN(t, l, indexStride, indexStride+1)
	checkMarks(t, l)
	checkReadFrom(t, l, dir)
}

// BenchmarkReadFromTail reads the newest record of a single-segment log:
// the replication stream's steady state. Its cost must not grow with
// the segment.
func BenchmarkReadFromTail(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Sync: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := []byte("event-7") // encoded consumption events run ~7 bytes
			for i := 0; i < n; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
			if segs := len(segmentBases(l)); segs != 1 {
				b.Fatalf("%d records span %d segments, want 1", n, segs)
			}
			tail := l.NextLSN() - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				if _, err := l.ReadFrom(tail, 1, func(uint64, []byte) error { got++; return nil }); err != nil || got != 1 {
					b.Fatalf("tail read: %d records, %v", got, err)
				}
			}
		})
	}
}
