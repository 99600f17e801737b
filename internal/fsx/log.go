package fsx

import (
	"errors"
	"io/fs"
	"os"
	"sync"
)

// Log is an append-only file of sealed records. Append queues a record
// and returns its sequence number; Sync(seq) returns once that record is
// durable. One caller at a time writes everything queued, with the lock
// released, and a Sync whose record that write covered returns without
// writing: group commit. A failed write leaves its records queued, and
// the next write starts again at the durable length, cutting off what
// the failed one left. A write that lands is one write and one fsync
// through a handle the log holds until Close or Release.
type Log struct {
	// Write writes data at offset off of the file and makes it durable.
	// Tests and fault injection substitute it, while no write is in
	// flight, calling the default they read from here to land some data.
	Write func(off int64, data []byte) error

	path string
	mu   sync.Mutex
	done sync.Cond // broadcast when a write ends
	// f, the default Write's handle, is touched outside the lock only by
	// the write in flight. fresh holds until the first write lands; that
	// write replaces the file atomically.
	f     *os.File
	fresh bool
	// A write takes queue, the records not yet landed, and leaves spare,
	// the buffer of the write before, in its place.
	queue, spare []byte
	// Sequence numbers of the last appended, durable and SyncBehind-
	// requested record; size is the durable prefix's length.
	appended, durable, want uint64
	size, writes            int64
	// writing: a write is in flight; behind: the background writer runs;
	// released: Release was called, and no write will start again.
	writing, behind, released bool
}

// ErrReleased is the error of a Sync that would have to write to a log
// after its Release.
var ErrReleased = errors.New("fsx: log released")

// NewLog starts an empty log at path without touching the file: the
// first write atomically replaces whatever path holds.
func NewLog(path string) *Log { return newLog(&Log{path: path, fresh: true}) }

// OpenLog replays the records of the file at path through apply, as
// ReadRecords does, and opens it for appending; a missing file is an
// empty log. It cuts a torn or damaged tail off the file before it
// returns, so appends extend the valid prefix. It returns the number of
// records replayed, which is also the last one's sequence number.
func OpenLog(path string, apply func(body []byte) bool) (*Log, int, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, err
	}
	n, good := ReadRecords(data, apply)
	l := newLog(&Log{path: path, appended: uint64(n), durable: uint64(n), size: int64(good)})
	if err := l.write(l.size, nil); err != nil {
		l.Release()
		return nil, 0, err
	}
	return l, n, nil
}

func newLog(l *Log) *Log {
	l.done.L = &l.mu
	l.Write = l.write
	return l
}

// Append seals body onto the queue and returns its sequence number. It
// never waits for a write and, once the queue has grown, never allocates.
func (l *Log) Append(body []byte) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue = AppendRecord(l.queue, body)
	l.appended++
	return l.appended
}

// Sync returns once record seq is durable, or with the error of the
// write that should have made it so, or with ErrReleased once the log is
// released and only a new write could make it so.
func (l *Log) Sync(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(seq)
}

func (l *Log) syncLocked(seq uint64) error {
	// A fresh log's file holds none of its records, not even the empty
	// prefix, until its first write lands.
	for l.fresh || l.durable < seq {
		if l.writing {
			l.done.Wait()
		} else if l.released {
			return ErrReleased
		} else if err := l.writeLocked(); err != nil {
			return err
		}
	}
	return nil
}

// SyncBehind asks for record seq to become durable without waiting. One
// background writer runs at a time and serves the requests made during
// a write with its next one. A failure goes unreported until the next
// Sync or Close writes the records again.
func (l *Log) SyncBehind(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.want = max(l.want, seq)
	if !l.behind {
		l.behind = true
		go func() {
			l.mu.Lock()
			defer l.mu.Unlock()
			for l.syncLocked(l.want) == nil && l.durable < l.want {
			}
			l.behind = false
		}()
	}
}

// writeLocked writes everything queued at the durable length with the
// lock released. Callers hold l.mu, and no write is in flight.
func (l *Log) writeLocked() error {
	data, upto, off := l.queue, l.appended, l.size
	l.queue, l.writing = l.spare[:0], true
	l.mu.Unlock()
	err := l.Write(off, data)
	if err != nil && l.f != nil {
		l.f.Close() // the next write reopens the file and cuts it to off
		l.f = nil
	}
	l.mu.Lock()
	l.writing = false
	l.writes++
	if err != nil {
		l.spare = l.queue
		l.queue = append(data, l.spare...)
	} else {
		l.fresh = false
		l.durable, l.size, l.spare = upto, off+int64(len(data)), data
	}
	l.done.Broadcast()
	return err
}

// write is the default Write: a fresh log's first write replaces the
// file atomically, and a later one writes at off through the held handle,
// first opening the file and cutting it to off if none is held.
func (l *Log) write(off int64, data []byte) error {
	if l.fresh {
		return WriteFileAtomic(l.path, data, 0o644)
	}
	if l.f == nil {
		flag := os.O_WRONLY
		if off == 0 {
			flag |= os.O_CREATE // a missing file is an empty log
		}
		f, err := os.OpenFile(l.path, flag, 0o644)
		if err != nil {
			return err
		}
		l.f = f
		if err := f.Truncate(off); err != nil {
			return err
		}
	}
	if _, err := l.f.WriteAt(data, off); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close makes every appended record durable, then closes the handle,
// and returns the error of the last write it needed; an empty fresh log
// leaves an empty file. A later write reopens the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncLocked(l.appended)
	l.closeLocked()
	return err
}

// Release closes the handle without writing what is queued, leaving the
// file as a crash would. It waits for a write in flight, and it is
// final: a later Sync that would have to write returns ErrReleased, so
// nothing lands in the file after Release returns.
func (l *Log) Release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Set before waiting, so that a Sync the write in flight wakes
	// does not start another.
	l.released = true
	l.closeLocked()
}

// closeLocked waits for a write in flight and closes the handle.
// Callers hold l.mu.
func (l *Log) closeLocked() {
	for l.writing {
		l.done.Wait()
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Stats returns the last durable record's sequence number, which is the
// file's record count once the log has written, and the number of writes
// made, each one fsync however many records and Syncs it served.
func (l *Log) Stats() (durable uint64, writes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable, l.writes
}
