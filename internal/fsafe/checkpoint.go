package fsafe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
)

// ErrCorrupt marks a checkpoint file that fails structural or checksum
// validation: torn mid-write, truncated, or bit-rotted. It is exactly the
// class of failure the previous generation repairs, so Load falls back on
// it; any other error (a checkpoint for a different job, say) means an
// older file cannot help.
var ErrCorrupt = errors.New("fsafe: checkpoint corrupt")

// Format is one checkpoint layout: a tag, a fixed number of uint64 header
// words and a fixed number of word sections. On disk, all little-endian:
//
//	tag                               len(Tag) bytes
//	header                            Header × uint64
//	section × Sections                uint64 count + count × uint64
//	crc                               uint32 CRC-32 (IEEE) of everything above
//
// Save keeps two generations, path (newest) and path.prev. It rotates
// before it replaces, and each write is atomic (WriteFile), so a crash at
// any instant leaves at least one loadable generation on disk.
type Format struct {
	Tag      string
	Header   int
	Sections int
}

// Save rotates path to path.prev and writes header and sections as the
// newest generation. The file is encoded into one buffer, so it costs one
// checksum pass and one write.
func (f Format) Save(path string, header []uint64, sections ...[]uint64) error {
	if len(header) != f.Header || len(sections) != f.Sections {
		return fmt.Errorf("fsafe: %s checkpoint takes %d header words and %d sections, got %d and %d",
			f.Tag, f.Header, f.Sections, len(header), len(sections))
	}
	buf := f.encode(header, sections)
	if err := os.Rename(path, path+".prev"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("fsafe: rotate checkpoint: %w", err)
	}
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

func (f Format) encode(header []uint64, sections [][]uint64) []byte {
	size := len(f.Tag) + 8*len(header) + 4
	for _, s := range sections {
		size += 8 + 8*len(s)
	}
	buf := append(make([]byte, 0, size), f.Tag...)
	buf = appendWords(buf, header)
	for _, s := range sections {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = appendWords(buf, s)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func appendWords(buf []byte, words []uint64) []byte {
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Load reads the newest loadable generation of path and hands it to
// accept, which checks the file's identity and installs its state. It
// tries path.prev only when path is missing or its error wraps ErrCorrupt
// (accept may return such an error for contents the checksum cannot
// catch); any other error from accept is returned at once. Load returns
// the path of the generation accept took, or, when neither did, the
// newest generation's error.
func (f Format) Load(path string, accept func(header []uint64, sections [][]uint64) error) (string, error) {
	var first error
	for _, p := range []string{path, path + ".prev"} {
		data, err := os.ReadFile(p)
		if err == nil {
			var header []uint64
			var sections [][]uint64
			if header, sections, err = f.decode(data); err != nil {
				err = fmt.Errorf("%s: %w", p, err)
			} else if err = accept(header, sections); err == nil {
				return p, nil
			}
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if first == nil {
			first = err
		}
	}
	return "", first
}

// decode parses one checkpoint file. Every rejection wraps ErrCorrupt.
func (f Format) decode(data []byte) ([]uint64, [][]uint64, error) {
	if len(data) < len(f.Tag)+8*(f.Header+f.Sections)+4 {
		return nil, nil, fmt.Errorf("truncated at %d bytes: %w", len(data), ErrCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, nil, fmt.Errorf("checksum mismatch (file %#x, computed %#x): %w", got, want, ErrCorrupt)
	}
	if string(body[:len(f.Tag)]) != f.Tag {
		return nil, nil, fmt.Errorf("tag %q, want %q: %w", body[:len(f.Tag)], f.Tag, ErrCorrupt)
	}
	body = body[len(f.Tag):]
	if len(body)%8 != 0 {
		return nil, nil, fmt.Errorf("%d bytes of words: %w", len(body), ErrCorrupt)
	}
	words := make([]uint64, len(body)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	header, words := words[:f.Header], words[f.Header:]
	sections := make([][]uint64, f.Sections)
	for i := range sections {
		if len(words) == 0 || words[0] > uint64(len(words)-1) {
			return nil, nil, fmt.Errorf("section %d overruns the file: %w", i, ErrCorrupt)
		}
		n := int(words[0])
		sections[i], words = words[1:1+n:1+n], words[1+n:]
	}
	if len(words) != 0 {
		return nil, nil, fmt.Errorf("%d words after the last section: %w", len(words), ErrCorrupt)
	}
	return header, sections, nil
}
