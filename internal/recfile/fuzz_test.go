package recfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// framed encodes recs as a record file's bytes.
func framed(recs ...string) []byte {
	var b []byte
	for _, r := range recs {
		b = append(binary.AppendUvarint(b, uint64(len(r))), r...)
	}
	return b
}

// readAll reads the file holding data to its end and returns the records
// and the error that ended them (nil at a clean end of file).
func readAll(t *testing.T, data []byte) ([][]byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.rec")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs [][]byte
	for {
		rec, err := r.Next()
		if cap(r.buf) > len(data) {
			t.Fatalf("a %d-byte file sized a %d-byte buffer", len(data), cap(r.buf))
		}
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
}

func TestCorruptFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"length overflows 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 0x7f)},
		{"length past the end", []byte{0xff, 0xff, 0xff, 0x7f, 'x'}},
		{"truncated length", append(framed("ab"), 0x80)},
		{"truncated record", append(framed("ab"), 3, 'c')},
	} {
		recs, err := readAll(t, tc.data)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %d records and %v, want a *CorruptError", tc.name, len(recs), err)
		}
	}
}

// FuzzReader reads arbitrary bytes as a record file: they are records up
// to the end of the file or a *CorruptError, never a panic, another error,
// or a buffer larger than the file. Records read back frame to the same
// bytes when the lengths are minimally encoded.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(framed("a", "", "bcd"))
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x7f))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x05, 'a', 'b'})
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readAll(t, data)
		var ce *CorruptError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("untyped error %v", err)
		}
		var strs []string
		for _, r := range recs {
			strs = append(strs, string(r))
		}
		if again := framed(strs...); err == nil && len(again) == len(data) && !bytes.Equal(again, data) {
			t.Fatalf("records %q frame to %x, read from %x", strs, again, data)
		}
	})
}
