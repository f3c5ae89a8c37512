// Package recfile provides block-buffered sequential record files for
// intermediate query results, plus a k-way external merge sort.
//
// Milestone 3 of the paper allows engines to "write to disk each
// intermediate result, and re-read it whenever necessary"; recfile is that
// facility. The paper also notes that the public Berkeley DB distribution
// supported only block-based reading, making textbook external sort and
// block-nested-loop join awkward — our own files buffer both directions,
// so both algorithms are implemented properly.
package recfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// BlockSize is the buffer size used for reading and writing record files.
const BlockSize = 64 << 10

var tempSeq atomic.Uint64

// TempPath returns a fresh temp-file path inside dir.
func TempPath(dir, prefix string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.tmp", prefix, tempSeq.Add(1)))
}

// Writer appends length-prefixed records to a file through a block buffer.
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	path   string
	count  int64
	bytes  int64
	lenbuf [binary.MaxVarintLen64]byte

	// Hook, when set, is consulted before every write ("append") and flush
	// ("finish"); a non-nil return aborts the operation with that error.
	// The fault-injection harness uses it to fail the Nth temp-file write.
	Hook func(op string) error
}

// CreateWriter creates (truncating) a record file at path.
func CreateWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("recfile: %w", err)
	}
	return &Writer{f: f, w: bufio.NewWriterSize(f, BlockSize), path: path}, nil
}

// Append writes one record.
func (w *Writer) Append(rec []byte) error {
	if w.Hook != nil {
		if err := w.Hook("temp:append"); err != nil {
			return err
		}
	}
	n := binary.PutUvarint(w.lenbuf[:], uint64(len(rec)))
	if _, err := w.w.Write(w.lenbuf[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(rec); err != nil {
		return err
	}
	w.count++
	w.bytes += int64(n + len(rec))
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer) Count() int64 { return w.count }

// Bytes returns the encoded size written so far.
func (w *Writer) Bytes() int64 { return w.bytes }

// Offset returns the byte offset the next record will start at — the
// encoded size written so far. Segment readers use it to address records
// written earlier in a still-open file (after Flush).
func (w *Writer) Offset() int64 { return w.bytes }

// Flush forces buffered records to the OS so a concurrent SegReader on the
// same path can see everything appended so far.
func (w *Writer) Flush() error {
	if w.Hook != nil {
		if err := w.Hook("temp:flush"); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Finish flushes and closes the file, leaving it on disk for reading.
func (w *Writer) Finish() error {
	if w.Hook != nil {
		if err := w.Hook("temp:finish"); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort closes and deletes the file.
func (w *Writer) Abort() {
	w.f.Close()
	os.Remove(w.path)
}

// CorruptError reports a record file whose framing is broken: a length
// prefix that is malformed or longer than the bytes left in the file, or a
// record cut short.
type CorruptError struct {
	Path   string
	Offset int64 // offset of the frame's length prefix
	Msg    string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("recfile: corrupt record at offset %d of %s: %s", e.Offset, e.Path, e.Msg)
}

// frames reads length-prefixed records from an open file through a block
// buffer. off and size bound every length prefix by the bytes the file
// holds, so a corrupt prefix never sizes a buffer beyond the file.
type frames struct {
	f    *os.File
	r    *bufio.Reader
	path string
	buf  []byte
	off  int64 // file offset of the next unread byte
	size int64 // file size when the position was last set
}

func openFrames(path string) (frames, error) {
	f, err := os.Open(path)
	if err != nil {
		return frames{}, fmt.Errorf("recfile: %w", err)
	}
	fr := frames{f: f, r: bufio.NewReaderSize(f, BlockSize), path: path}
	if err := fr.seek(0); err != nil {
		f.Close()
		return frames{}, err
	}
	return fr, nil
}

// seek positions the reader at off and takes the file's current size.
func (fr *frames) seek(off int64) error {
	st, err := fr.f.Stat()
	if err != nil {
		return fmt.Errorf("recfile: %w", err)
	}
	if _, err := fr.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("recfile: %w", err)
	}
	fr.r.Reset(fr.f)
	fr.off, fr.size = off, st.Size()
	return nil
}

// next returns the next record, or io.EOF at a frame boundary at the end
// of the file. The slice is valid only until the next call.
func (fr *frames) next() ([]byte, error) {
	start := fr.off
	var size uint64
	for shift := uint(0); ; shift += 7 {
		b, err := fr.r.ReadByte()
		if err == io.EOF && shift == 0 {
			return nil, io.EOF
		}
		if err == io.EOF {
			return nil, &CorruptError{fr.path, start, "truncated record length"}
		}
		if err != nil {
			return nil, fmt.Errorf("recfile: %w", err)
		}
		fr.off++
		if shift == 63 && b > 1 {
			return nil, &CorruptError{fr.path, start, "record length overflows 64 bits"}
		}
		size |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if left := fr.size - fr.off; size > uint64(max(left, 0)) {
		return nil, &CorruptError{fr.path, start, fmt.Sprintf("record of %d bytes, %d left in the file", size, left)}
	}
	if uint64(cap(fr.buf)) < size {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if _, err := io.ReadFull(fr.r, fr.buf); err == io.ErrUnexpectedEOF || err == io.EOF {
		return nil, &CorruptError{fr.path, start, "truncated record"}
	} else if err != nil {
		return nil, fmt.Errorf("recfile: %w", err)
	}
	fr.off += int64(size)
	return fr.buf, nil
}

// Reader reads a record file sequentially through a block buffer.
type Reader struct{ frames }

// OpenReader opens a record file for sequential reading.
func OpenReader(path string) (*Reader, error) {
	fr, err := openFrames(path)
	if err != nil {
		return nil, err
	}
	return &Reader{fr}, nil
}

// Next returns the next record, or io.EOF. The returned slice is valid
// only until the next call to Next. A broken frame is a *CorruptError.
func (r *Reader) Next() ([]byte, error) { return r.next() }

// Reset rewinds the reader to the beginning of the file, so the stream can
// be scanned again (used by the nested-loops join inner input).
func (r *Reader) Reset() error { return r.seek(0) }

// Close closes the underlying file (the file itself is kept).
func (r *Reader) Close() error { return r.f.Close() }

// Remove closes the reader and deletes the file.
func (r *Reader) Remove() error {
	err := r.f.Close()
	if rerr := os.Remove(r.path); err == nil {
		err = rerr
	}
	return err
}

// SegReader reads records from arbitrary byte offsets of a record file
// through its own descriptor, so segments of a file still open for
// appending can be replayed (after the writer Flushes). Seek positions the
// reader; Next then streams records sequentially from there.
type SegReader struct{ frames }

// OpenSegReader opens path for offset-addressed record reads.
func OpenSegReader(path string) (*SegReader, error) {
	fr, err := openFrames(path)
	if err != nil {
		return nil, err
	}
	return &SegReader{fr}, nil
}

// SeekTo positions the reader at the given byte offset (which must be a
// record boundary previously obtained from Writer.Offset).
func (r *SegReader) SeekTo(off int64) error { return r.seek(off) }

// Next returns the next record, or io.EOF. The returned slice is valid
// only until the next call to Next or SeekTo.
func (r *SegReader) Next() ([]byte, error) { return r.next() }

// Close closes the underlying file (the file itself is kept).
func (r *SegReader) Close() error { return r.f.Close() }
