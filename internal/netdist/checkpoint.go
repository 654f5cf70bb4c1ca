package netdist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ndgraph/internal/fsafe"
)

// ErrCorrupt reports that a worker checkpoint file is structurally broken
// or fails its checksum. As with core.ErrCorrupt, the sentinel marks
// exactly the class of failures the two-generation rotation repairs:
// errors.Is(err, ErrCorrupt) means "try the previous generation"; any
// other error means retrying older files cannot help.
var ErrCorrupt = errors.New("netdist: checkpoint corrupt")

// Worker checkpoint file layout (all integers little-endian):
//
//	magic   "NDW1"                        4 bytes
//	algo    uint16 length + name bytes    (rejects algorithm mismatches)
//	worker  uint32
//	lo, hi  uint32 ×2                     owned vertex range
//	words   uint32 count + count×uint64   kernel state (kernel-defined)
//	crc     uint32                        CRC-32 (IEEE) of everything above
//
// Two generations are kept: "ckpt" (newest) and "ckpt.prev". Writes
// rotate before replacing, and each individual write is atomic
// (fsafe.WriteFile: temp file + rename), so a crash at any instant leaves
// at least one loadable generation on disk.

const ckptMagic = "NDW1"

// ckptName / ckptPrev name the two generations inside a worker directory.
const (
	ckptName = "ckpt"
	ckptPrev = "ckpt.prev"
)

type checkpoint struct {
	Algo   string
	Worker int
	Lo, Hi uint32
	Words  []uint64
}

// saveCheckpoint rotates the current generation to .prev and writes ck as
// the newest generation in dir.
func saveCheckpoint(dir string, ck checkpoint) error {
	if len(ck.Algo) > 0xffff {
		return fmt.Errorf("netdist: algorithm name of %d bytes", len(ck.Algo))
	}
	path := filepath.Join(dir, ckptName)
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, filepath.Join(dir, ckptPrev)); err != nil {
			return fmt.Errorf("netdist: rotate checkpoint: %w", err)
		}
	}
	// The whole file is encoded into one buffer: one write, one checksum pass.
	buf := make([]byte, 0, len(ckptMagic)+2+len(ck.Algo)+16+8*len(ck.Words)+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ck.Algo)))
	buf = append(buf, ck.Algo...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ck.Worker))
	buf = binary.LittleEndian.AppendUint32(buf, ck.Lo)
	buf = binary.LittleEndian.AppendUint32(buf, ck.Hi)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ck.Words)))
	for _, word := range ck.Words {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return fsafe.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// loadCheckpoint reads and verifies one checkpoint file. Structural and
// checksum failures wrap ErrCorrupt; a missing file surfaces as the
// os.Open error (fs.ErrNotExist), which is not corruption.
func loadCheckpoint(path string) (checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return checkpoint{}, err
	}
	if len(data) < len(ckptMagic)+2+8+8+4 {
		return checkpoint{}, fmt.Errorf("%w: %s truncated at %d bytes", ErrCorrupt, path, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return checkpoint{}, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, path)
	}
	if string(body[:4]) != ckptMagic {
		return checkpoint{}, fmt.Errorf("%w: %s has bad magic %q", ErrCorrupt, path, body[:4])
	}
	body = body[4:]
	nameLen := int(binary.LittleEndian.Uint16(body))
	body = body[2:]
	if len(body) < nameLen+16 {
		return checkpoint{}, fmt.Errorf("%w: %s truncated inside header", ErrCorrupt, path)
	}
	ck := checkpoint{Algo: string(body[:nameLen])}
	body = body[nameLen:]
	ck.Worker = int(binary.LittleEndian.Uint32(body))
	ck.Lo = binary.LittleEndian.Uint32(body[4:])
	ck.Hi = binary.LittleEndian.Uint32(body[8:])
	count := int(binary.LittleEndian.Uint32(body[12:]))
	body = body[16:]
	if len(body) != count*8 {
		return checkpoint{}, fmt.Errorf("%w: %s declares %d words in %d bytes", ErrCorrupt, path, count, len(body))
	}
	ck.Words = make([]uint64, count)
	for i := range ck.Words {
		ck.Words[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	return ck, nil
}

// restoreCheckpoint applies the supervisor's recovery discipline inside
// dir: newest generation first, previous on ErrCorrupt. It returns which
// generation loaded ("" with ok=false when neither did — cold start).
func restoreCheckpoint(dir string, algo string, worker int, lo, hi uint32) (checkpoint, string, bool, error) {
	for _, name := range []string{ckptName, ckptPrev} {
		ck, err := loadCheckpoint(filepath.Join(dir, name))
		if err != nil {
			if errors.Is(err, ErrCorrupt) || errors.Is(err, os.ErrNotExist) {
				continue // fall back to the previous generation
			}
			return checkpoint{}, "", false, err
		}
		if ck.Algo != algo || ck.Worker != worker || ck.Lo != lo || ck.Hi != hi {
			return checkpoint{}, "", false, fmt.Errorf(
				"netdist: checkpoint %s holds %s worker %d [%d,%d), want %s worker %d [%d,%d)",
				name, ck.Algo, ck.Worker, ck.Lo, ck.Hi, algo, worker, lo, hi)
		}
		return ck, name, true, nil
	}
	return checkpoint{}, "", false, nil
}
