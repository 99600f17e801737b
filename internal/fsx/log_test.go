package fsx

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errInjected = errors.New("injected write failure")

// sealed returns the sealed records of bodies, in order.
func sealed(bodies ...string) []byte {
	var out []byte
	for _, b := range bodies {
		out = AppendRecord(out, []byte(b))
	}
	return out
}

// replay opens the log at path and returns it with the bodies it
// replayed.
func replay(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, n, err := OpenLog(path, func(body []byte) bool {
		got = append(got, string(body))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if durable, _ := l.Stats(); n != len(got) || durable != uint64(n) {
		t.Fatalf("OpenLog returned %d records and durable %d, replayed %d", n, durable, len(got))
	}
	return l, got
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A write torn at any byte, as a crash mid-append leaves it, reopens as
// the records of every Sync that returned nil plus the whole records of
// the torn write's prefix. OpenLog cuts the file to exactly those, and
// the next append lands right after them.
func TestLogTornWrite(t *testing.T) {
	landed := []string{`{"a":1}`, `{"b":[2,3]}`}
	torn := []string{`{"c":"x"}`, `{"d":4}`}
	prefix, batch := sealed(landed...), sealed(torn...)
	ends := []int{len(sealed(torn[0])), len(batch)}
	dir := t.TempDir()
	for n := 0; n <= len(batch); n++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d", n))
		l := NewLog(path)
		for _, b := range landed {
			l.Append([]byte(b))
		}
		if err := l.Sync(2); err != nil {
			t.Fatal(err)
		}
		write := l.Write
		l.Write = func(off int64, data []byte) error {
			if err := write(off, data[:n]); err != nil {
				return err
			}
			return errInjected
		}
		l.Append([]byte(torn[0]))
		if err := l.Sync(l.Append([]byte(torn[1]))); !errors.Is(err, errInjected) {
			t.Fatalf("torn at %d: Sync returned %v", n, err)
		}
		l.Release()

		whole := 0
		for whole < len(ends) && ends[whole] <= n {
			whole++
		}
		valid := len(prefix)
		if whole > 0 {
			valid += ends[whole-1]
		}
		r, got := replay(t, path)
		want := append(append([]string{}, landed...), torn[:whole]...)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("torn at %d: replayed %q, want %q", n, got, want)
		}
		onDisk := mustRead(t, path)
		if !bytes.Equal(onDisk, append(append([]byte{}, prefix...), batch[:valid-len(prefix)]...)) {
			t.Fatalf("torn at %d: file is %d bytes, want the %d-byte valid prefix", n, len(onDisk), valid)
		}
		seq := r.Append([]byte(`{"e":5}`))
		if seq != uint64(len(want)+1) {
			t.Fatalf("torn at %d: next append is record %d, want %d", n, seq, len(want)+1)
		}
		if err := r.Sync(seq); err != nil {
			t.Fatal(err)
		}
		if got := mustRead(t, path); !bytes.Equal(got, append(onDisk, sealed(`{"e":5}`)...)) {
			t.Fatalf("torn at %d: the next append did not land right after the valid prefix", n)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A failed write followed by a good one leaves every record exactly once
// and nothing else, even when the failed write left more bytes behind
// than the retry writes.
func TestLogFailedWriteRetried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := NewLog(path)
	if err := l.Sync(l.Append([]byte(`{"a":1}`))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(l.Append([]byte(`{"b":2}`))); err != nil {
		t.Fatal(err)
	}
	write := l.Write
	l.Write = func(off int64, data []byte) error {
		if err := write(off, append(append([]byte{}, data...), bytes.Repeat([]byte("x"), 200)...)); err != nil {
			return err
		}
		return errInjected
	}
	if err := l.Sync(l.Append([]byte(`{"c":3}`))); !errors.Is(err, errInjected) {
		t.Fatalf("failed write: Sync returned %v", err)
	}
	if durable, _ := l.Stats(); durable != 2 {
		t.Fatalf("a failed write made records durable: %d", durable)
	}
	l.Write = write
	if err := l.Sync(l.Append([]byte(`{"d":4}`))); err != nil {
		t.Fatal(err)
	}
	if got, want := mustRead(t, path), sealed(`{"a":1}`, `{"b":2}`, `{"c":3}`, `{"d":4}`); !bytes.Equal(got, want) {
		t.Fatalf("after the retry the file holds\n%s\nwant\n%s", got, want)
	}
	if _, n := l.Stats(); n != 4 {
		t.Fatalf("%d writes, want 4 (two landed, one failed, one retry)", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent appenders share writes: every Sync that returned is durable
// on reopen, and there are fewer writes than Syncs. The first write is
// held until every appender has appended once, so the next write carries
// several of them whatever the scheduler does.
func TestLogGroupCommit(t *testing.T) {
	const appenders, each = 8, 20
	path := filepath.Join(t.TempDir(), "log")
	l, _, err := OpenLog(path, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var first sync.WaitGroup
	first.Add(appenders)
	var held atomic.Bool
	write := l.Write
	l.Write = func(off int64, data []byte) error {
		if held.CompareAndSwap(false, true) {
			first.Wait()
		}
		return write(off, data)
	}
	var wg sync.WaitGroup
	var syncs atomic.Int64
	for g := range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				seq := l.Append(fmt.Appendf(nil, `{"g":%d,"i":%d}`, g, i))
				if i == 0 {
					first.Done()
				}
				if err := l.Sync(seq); err != nil {
					t.Error(err)
					return
				}
				syncs.Add(1)
			}
		}()
	}
	wg.Wait()
	if _, w := l.Stats(); w >= syncs.Load() {
		t.Fatalf("%d writes for %d Syncs: no write served more than one", w, syncs.Load())
	}
	r, got := replay(t, path)
	defer r.Close()
	next := make([]int, appenders)
	for _, body := range got {
		var g, i int
		if _, err := fmt.Sscanf(body, `{"g":%d,"i":%d}`, &g, &i); err != nil || g < 0 || g >= appenders || i != next[g] {
			t.Fatalf("record %q out of order or duplicated", body)
		}
		next[g]++
	}
	if len(got) != appenders*each {
		t.Fatalf("reopened log holds %d records, want %d", len(got), appenders*each)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close waits for a write in flight, never closing the handle under it,
// writes the rest and releases the handle; a later Append plus Sync
// reopens the file.
func TestLogCloseReleasesAndReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := NewLog(path)
	for _, b := range []string{`{"a":1}`, `{"b":2}`} {
		if err := l.Sync(l.Append([]byte(b))); err != nil {
			t.Fatal(err)
		}
	}
	if l.f == nil {
		t.Fatal("no handle held after an append")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	write := l.Write
	l.Write = func(off int64, data []byte) error {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return write(off, data)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync(l.Append([]byte(`{"c":3}`))) }()
	<-entered
	l.Append([]byte(`{"d":4}`))
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a write was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if l.f != nil {
		t.Fatal("Close left the handle open")
	}
	if got, want := mustRead(t, path), sealed(`{"a":1}`, `{"b":2}`, `{"c":3}`, `{"d":4}`); !bytes.Equal(got, want) {
		t.Fatalf("after Close the file holds\n%s\nwant\n%s", got, want)
	}
	if err := l.Sync(l.Append([]byte(`{"e":5}`))); err != nil {
		t.Fatal(err)
	}
	if l.f == nil {
		t.Fatal("the append after Close did not reopen the file")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := replay(t, path); len(got) != 5 {
		t.Fatalf("reopened log holds %d records, want 5", len(got))
	}
}

// Release is final. It waits for the write in flight, which lands, and
// a Sync queued behind that write then returns ErrReleased instead of
// writing its record, as does every later Sync or Close that would have
// to write: the file keeps exactly what was durable when Release returned.
func TestLogReleaseIsFinal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := NewLog(path)
	if err := l.Sync(l.Append([]byte(`{"a":1}`))); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	write := l.Write
	l.Write = func(off int64, data []byte) error {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return write(off, data)
	}
	first := make(chan error, 1)
	go func() { first <- l.Sync(l.Append([]byte(`{"b":2}`))) }()
	<-entered
	seq := l.Append([]byte(`{"c":3}`))
	behind := make(chan error, 1)
	go func() { behind <- l.Sync(seq) }()
	released := make(chan struct{})
	go func() {
		l.Release()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("Release returned while a write was in flight")
	case err := <-behind:
		t.Fatalf("a Sync behind the held write returned (%v) before it ended", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-released
	if err := <-first; err != nil {
		t.Fatalf("the write in flight at Release: %v", err)
	}
	if err := <-behind; !errors.Is(err, ErrReleased) {
		t.Fatalf("Sync behind the held write returned %v, want ErrReleased", err)
	}
	want := sealed(`{"a":1}`, `{"b":2}`)
	if got := mustRead(t, path); !bytes.Equal(got, want) {
		t.Fatalf("after Release the file holds\n%s\nwant\n%s", got, want)
	}
	if err := l.Sync(2); err != nil {
		t.Fatalf("Sync of a durable record after Release: %v", err)
	}
	if err := l.Sync(seq); !errors.Is(err, ErrReleased) {
		t.Fatalf("a later Sync returned %v, want ErrReleased", err)
	}
	if err := l.Close(); !errors.Is(err, ErrReleased) {
		t.Fatalf("Close after Release returned %v, want ErrReleased", err)
	}
	if got := mustRead(t, path); !bytes.Equal(got, want) {
		t.Fatalf("a write landed after Release: the file holds\n%s", got)
	}
	if durable, writes := l.Stats(); durable != 2 || writes != 2 {
		t.Fatalf("durable %d after %d writes, want 2 after 2", durable, writes)
	}
}

// A fresh log replaces whatever its path held, atomically, on its first
// write; one closed with no record leaves an empty file. Nothing is
// touched before that write.
func TestLogFreshReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, sealed(`{"old":1}`, `{"old":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLog(path)
	l.Append([]byte(`{"new":1}`))
	if got := mustRead(t, path); !bytes.Equal(got, sealed(`{"old":1}`, `{"old":2}`)) {
		t.Fatal("NewLog or Append touched the file")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); !bytes.Equal(got, sealed(`{"new":1}`)) {
		t.Fatalf("fresh log left %q", got)
	}
	if err := NewLog(path).Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); len(got) != 0 {
		t.Fatalf("an empty fresh log left %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// SyncBehind does not wait, runs one background writer, and serves the
// requests made during its write with its next write. A failed
// background write leaves its records queued for the next Close.
func TestLogSyncBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := NewLog(path)
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	write := l.Write
	l.Write = func(off int64, data []byte) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return write(off, data)
	}
	l.SyncBehind(l.Append([]byte(`{"i":0}`)))
	<-entered
	var last uint64
	for i := 1; i <= 5; i++ {
		last = l.Append(fmt.Appendf(nil, `{"i":%d}`, i))
		l.SyncBehind(last)
	}
	close(release)
	waitDurable(t, l, last)
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d writes, want 2: the held one, then one for every request made during it", n)
	}

	l.Write = func(int64, []byte) error { return errInjected }
	l.SyncBehind(l.Append([]byte(`{"i":6}`)))
	for _, w := l.Stats(); w < 3; _, w = l.Stats() {
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close after a failed background write returned %v", err)
	}
	l.Write = write
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, got := replay(t, path); len(got) != 7 {
		t.Fatalf("log holds %d records, want 7", len(got))
	}
}

func waitDurable(t *testing.T, l *Log, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for durable, _ := l.Stats(); durable < seq; durable, _ = l.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("record %d never became durable (durable %d)", seq, durable)
		}
		time.Sleep(time.Millisecond)
	}
}

// Release writes nothing queued and closes the handle, as a crash would
// leave the file. OpenLog makes a missing file and fails on one it cannot
// read.
func TestLogReleaseAndOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, n, err := OpenLog(path, func([]byte) bool { return true })
	if err != nil || n != 0 {
		t.Fatalf("OpenLog of a missing file: %d records, %v", n, err)
	}
	if err := l.Sync(l.Append([]byte(`{"a":1}`))); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte(`{"b":2}`))
	l.Release()
	if l.f != nil {
		t.Fatal("Release left the handle open")
	}
	if got := mustRead(t, path); !bytes.Equal(got, sealed(`{"a":1}`)) {
		t.Fatalf("Release wrote a queued record: %q", got)
	}
	// Only an empty log makes its file: one deleted after it wrote stays
	// gone rather than coming back with a hole where its records were.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(2); err == nil {
		t.Fatal("a write recreated a deleted log")
	}
	if _, _, err := OpenLog(dir, func([]byte) bool { return true }); err == nil {
		t.Fatal("OpenLog of a directory succeeded")
	}
}
