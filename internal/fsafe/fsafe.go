// Package fsafe provides crash-safe file writes: content is staged in a
// temporary file in the destination directory, flushed and synced, and only
// then renamed over the target. A crash at any point leaves either the old
// file or no file — never a truncated hybrid. The loader's graph writer
// routes its durable writes through this package, and core's and netdist's
// checkpoints share its one Format.
package fsafe

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write. The
// writer receives a buffered sink; it must not retain it. On any error the
// temporary file is removed and the previous contents of path (if any)
// survive untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("fsafe: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("fsafe: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsafe: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("fsafe: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("fsafe: %w", err)
	}
	return nil
}
