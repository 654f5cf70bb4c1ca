package fsafe

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var testFormat = Format{Tag: "TST1", Header: 2, Sections: 2}

// load reads the newest loadable generation of path and returns its words.
func load(t *testing.T, path string) (gen string, header []uint64, sections [][]uint64, err error) {
	t.Helper()
	gen, err = testFormat.Load(path, func(h []uint64, s [][]uint64) error {
		header, sections = h, s
		return nil
	})
	return gen, header, sections, err
}

func save(t *testing.T, path string, header []uint64, sections ...[]uint64) {
	t.Helper()
	if err := testFormat.Save(path, header, sections...); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	header, a, b := []uint64{3, 100}, []uint64{1, 2, ^uint64(0)}, []uint64{}
	save(t, path, header, a, b)
	gen, h, s, err := load(t, path)
	if err != nil || gen != path {
		t.Fatalf("gen=%q err=%v", gen, err)
	}
	if !slices.Equal(h, header) || !slices.Equal(s[0], a) || len(s[1]) != 0 {
		t.Fatalf("loaded %v %v, saved %v %v %v", h, s, header, a, b)
	}
	if err := testFormat.Save(path, header, a); err == nil {
		t.Fatal("Save accepted a file with a section missing")
	}
}

// A missing file is not corruption: callers treat it as "nothing saved".
func TestCheckpointMissingIsColdStart(t *testing.T) {
	_, _, _, err := load(t, filepath.Join(t.TempDir(), "ckpt"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want fs.ErrNotExist and not ErrCorrupt", err)
	}
}

func TestCheckpointTornFallsBackToPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	save(t, path, []uint64{1, 0}, []uint64{0, 1, 2, 3}, nil)
	save(t, path, []uint64{2, 0}, []uint64{0, 0, 0, 0}, nil)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest generation mid-file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := testFormat.decode(data[:len(data)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: err=%v, want ErrCorrupt", err)
	}
	gen, h, s, err := load(t, path)
	if err != nil || gen != path+".prev" {
		t.Fatalf("gen=%q err=%v", gen, err)
	}
	if h[0] != 1 || s[0][3] != 3 {
		t.Fatalf("restored %v %v, want the previous generation", h, s)
	}
	// With no previous generation, the torn file is ErrCorrupt.
	if err := os.Remove(path + ".prev"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := load(t, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file, no previous generation: err=%v, want ErrCorrupt", err)
	}
}

func TestCheckpointBitFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	save(t, path, []uint64{0, 2}, []uint64{7, 9}, []uint64{5})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range data {
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0x40
		if _, _, err := testFormat.decode(flipped); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err=%v, want ErrCorrupt", pos, err)
		}
	}
}

// Rotation keeps exactly two generations: the newest and the one before.
func TestCheckpointRotationKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	for gen := uint64(1); gen <= 3; gen++ {
		save(t, path, []uint64{gen, 0}, nil, nil)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"ckpt", "ckpt.prev"}) {
		t.Fatalf("directory holds %v, want [ckpt ckpt.prev]", names)
	}
	for name, want := range map[string]uint64{"ckpt": 3, "ckpt.prev": 2} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if h, _, err := testFormat.decode(data); err != nil || h[0] != want {
			t.Fatalf("%s holds generation %v (err %v), want %d", name, h, err, want)
		}
	}
}

// Load falls back to the previous generation only when the newest is
// missing or corrupt, which accept may also report; any other error from
// accept — a checkpoint for another job — ends the load.
func TestCheckpointFallbackOnlyOnCorruptOrMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	save(t, path, []uint64{1, 0}, nil, nil)
	save(t, path, []uint64{2, 0}, nil, nil)
	identity := errors.New("checkpoint of another job")
	for _, tc := range []struct {
		name    string
		newest  error
		wantGen string
		wantErr error
		calls   int
	}{
		{"accepted", nil, path, nil, 1},
		{"identity", identity, "", identity, 1},
		{"corrupt-contents", ErrCorrupt, path + ".prev", nil, 2},
	} {
		calls := 0
		gen, err := testFormat.Load(path, func(h []uint64, _ [][]uint64) error {
			calls++
			if h[0] == 2 {
				return tc.newest
			}
			return nil
		})
		if gen != tc.wantGen || !errors.Is(err, tc.wantErr) || calls != tc.calls {
			t.Errorf("%s: gen=%q err=%v after %d accept calls, want %q, %v, %d", tc.name, gen, err, calls, tc.wantGen, tc.wantErr, tc.calls)
		}
	}
	// A crash between rotation and the new write leaves only path.prev.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if gen, h, _, err := load(t, path); err != nil || gen != path+".prev" || h[0] != 1 {
		t.Fatalf("newest missing: gen=%q header=%v err=%v, want the previous generation", gen, h, err)
	}
}

// A failed write leaves the old file as it was and no temporary file behind.
func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of the new contents")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the callback's error", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "old" {
		t.Fatalf("old file now holds %q (err %v)", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the old file", len(entries))
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the decoder: it never
// panics, every rejection wraps ErrCorrupt, and whatever it accepts
// encodes back to the same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	valid := testFormat.encode([]uint64{7, 1 << 40}, [][]uint64{{1, 2, 3}, {^uint64(0)}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^0xff))
	f.Add(testFormat.encode([]uint64{0, 0}, [][]uint64{nil, nil}))
	f.Add([]byte("TST1not-a-checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, s, err := testFormat.decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if !bytes.Equal(testFormat.encode(h, s), data) {
			t.Fatalf("accepted %x, which encodes back differently", data)
		}
	})
}
