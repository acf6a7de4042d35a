package colstore

import (
	"fmt"
	"path/filepath"

	"powerdrill/internal/faultfs"
)

// This file is the Reader's cold-I/O machinery: a bounded per-column file
// handle cache (cold loads stop re-opening the column file), coalesced run
// reads (adjacent cold chunks become one ReadAt), and the IOStats the
// benchmarks report. All of it sits under Reader.mu; the actual ReadAt calls run
// outside the lock (handles are reference-counted so an eviction never
// closes a file mid-read).

const (
	// maxOpenFiles bounds the Reader's file handle cache.
	maxOpenFiles = 32
	// maxPrefetchBatchBytes bounds the raw record bytes a coalesced
	// prefetch holds in flight (PinSet.PinChunks): the byte budget
	// governs decoded residency, so the undecoded staging area must stay
	// small and constant too.
	maxPrefetchBatchBytes = 8 << 20
)

// IOStats counts the Reader's physical I/O and decompression work —
// the cost drivers of the cold path that the byte counters alone
// (DiskBytesRead) cannot separate.
type IOStats struct {
	// FileOpens counts os.Open calls (cache misses in the handle cache).
	FileOpens int64
	// ReadCalls counts ReadAt calls issued.
	ReadCalls int64
	// BytesRead sums the bytes those calls returned.
	BytesRead int64
	// DecompressCalls counts codec record decompressions.
	DecompressCalls int64
	// DecompressNanos sums the wall time spent inside the codec.
	DecompressNanos int64
	// ChecksumVerified counts records whose CRC32C was checked and
	// matched on a cold read.
	ChecksumVerified int64
	// ChecksumFailed counts records whose CRC32C check failed. A pin
	// verifies a whole batch before it admits any of it, so a batch with
	// two bad records counts both, and its pin returns the first one's
	// ChecksumError.
	ChecksumFailed int64
}

// openFile is a reference-counted cached handle. Eviction marks the handle
// doomed; the file closes when the last in-flight read releases it.
type openFile struct {
	f      faultfs.File
	refs   int
	doomed bool
}

// acquireFile returns a cached (or freshly opened) handle for the named
// column file. The caller must call the returned release exactly once;
// reads run outside the lock, and the reference count keeps an evicted
// handle open until its last in-flight read finishes.
func (r *Reader) acquireFile(file string) (faultfs.File, func(), error) {
	r.mu.Lock()
	of, ok := r.files[file]
	if ok {
		r.touchFileLocked(file)
	} else {
		f, err := vfs().Open(filepath.Join(r.dir, file))
		if err != nil {
			r.mu.Unlock()
			return nil, nil, err
		}
		r.stats.FileOpens++
		of = &openFile{f: f}
		if r.files == nil {
			r.files = make(map[string]*openFile, 8)
		}
		r.files[file] = of
		r.fileLRU = append(r.fileLRU, file)
		r.evictFilesLocked()
	}
	of.refs++
	f := of.f
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		of.refs--
		doClose := of.doomed && of.refs == 0
		r.mu.Unlock()
		if doClose {
			_ = of.f.Close()
		}
	}
	return f, release, nil
}

// touchFileLocked moves file to the back (most recent) of the LRU order.
func (r *Reader) touchFileLocked(file string) {
	for i, name := range r.fileLRU {
		if name == file {
			r.fileLRU = append(append(r.fileLRU[:i:i], r.fileLRU[i+1:]...), file)
			return
		}
	}
}

// evictFilesLocked enforces maxOpenFiles, closing (or dooming, when still
// referenced) the least recently used handles.
func (r *Reader) evictFilesLocked() {
	for len(r.files) > maxOpenFiles && len(r.fileLRU) > 0 {
		victim := r.fileLRU[0]
		r.fileLRU = r.fileLRU[1:]
		of, ok := r.files[victim]
		if !ok {
			continue
		}
		delete(r.files, victim)
		if of.refs > 0 {
			of.doomed = true
			continue
		}
		_ = of.f.Close()
	}
}

// loadBufs are the transient buffers of cold loads: the record bytes read
// from disk, and their decompressed form. A PinSet owns one for its reads
// and dictionary loads, on the query's goroutine, and one more per chunk
// decode worker, whose read half stays empty; each is reused by every load
// it serves. Every decoder copies what it keeps out of them (the chunk's
// global-ids and elements, the dictionary's values), so nothing decoded
// aliases them, and the set drops them at Release. A nil *loadBufs
// allocates afresh for each load: the exported Reader methods, whose
// callers may keep the bytes.
type loadBufs struct {
	read, raw []byte
}

// readBuf returns n bytes to read a record into.
func (b *loadBufs) readBuf(n int64) []byte {
	if b == nil {
		return make([]byte, n)
	}
	if int64(cap(b.read)) < n {
		b.read = make([]byte, n)
	}
	return b.read[:n]
}

// IOStats returns a snapshot of the Reader's physical I/O counters.
func (r *Reader) IOStats() IOStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close releases the Reader's cached file handles. The Reader stays usable
// afterwards (subsequent loads re-open files); Close only frees resources.
func (r *Reader) Close() error {
	r.mu.Lock()
	var toClose []faultfs.File
	for _, of := range r.files {
		// refs/doomed are guarded by r.mu: a handle still held by an
		// in-flight read is doomed here and closed by its release.
		if of.refs > 0 {
			of.doomed = true
			continue
		}
		toClose = append(toClose, of.f)
	}
	r.files = nil
	r.fileLRU = nil
	r.mu.Unlock()
	for _, f := range toClose {
		_ = f.Close()
	}
	return nil
}

// ReadChunkRuns reads the records of the given chunks, coalescing records
// that are adjacent in the list and in the file into single ReadAt calls
// (list the chunks in ascending order to coalesce every run). It returns
// each chunk's record bytes at its position in chunks (pass each to
// DecodeChunkRecord), the number of read runs issued, and the number of
// reads coalescing saved (a run of m chunks is one read instead of m,
// saving m−1).
func (r *Reader) ReadChunkRuns(name string, chunks []int) (recs [][]byte, runs, coalesced int, err error) {
	mc, lay, err := r.layoutOf(name)
	if err != nil {
		return nil, 0, 0, err
	}
	return r.readChunkRuns(mc, lay, chunks, nil)
}

// readChunkRuns is ReadChunkRuns reading every run into one buffer from
// bufs.
func (r *Reader) readChunkRuns(mc manifestCol, lay *columnLayout, chunks []int, bufs *loadBufs) (recs [][]byte, runs, coalesced int, err error) {
	spans := make([]record, len(chunks))
	for i, ci := range chunks {
		if spans[i].off, spans[i].n, _, err = r.chunkRange(mc, lay, ci); err != nil {
			return nil, 0, 0, err
		}
	}
	recs, runs, coalesced, err = r.readRuns(mc.File, spans, bufs)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("colstore: load column %q chunks %v: %w", mc.Name, chunks, err)
	}
	return recs, runs, coalesced, nil
}

// readRuns reads byte ranges of a column file into one buffer from bufs,
// one ReadAt per run of ranges adjacent in the list and in the file, and
// returns each range's bytes at its position in spans, the number of reads
// issued, and the number coalescing saved.
func (r *Reader) readRuns(file string, spans []record, bufs *loadBufs) (recs [][]byte, runs, coalesced int, err error) {
	var total int64
	for _, sp := range spans {
		total += sp.n
	}
	buf := bufs.readBuf(total)
	recs = make([][]byte, len(spans))
	for start := 0; start < len(spans); {
		end, n := start+1, spans[start].n
		for end < len(spans) && spans[end].off == spans[start].off+n {
			n += spans[end].n
			end++
		}
		run := buf[:n:n]
		buf = buf[n:]
		if err := r.readInto(file, spans[start].off, run); err != nil {
			return nil, 0, 0, err
		}
		for i := start; i < end; i++ {
			n := spans[i].n
			recs[i], run = run[:n:n], run[n:]
		}
		runs++
		coalesced += end - start - 1
		start = end
	}
	return recs, runs, coalesced, nil
}
