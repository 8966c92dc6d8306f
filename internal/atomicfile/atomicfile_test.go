package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, want := range []string{"first", "second, longer"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("contents = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestWriteFailureKeepsOldFile: a callback that fails part way through
// its output leaves the old contents in place and no temporary file.
func TestWriteFailureKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial new contents")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the callback's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("contents after a failed write = %q, %v; want %q", got, err, "old")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func TestWriteMissingDirFails(t *testing.T) {
	if err := Write(filepath.Join(t.TempDir(), "no", "such", "f"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory must fail")
	}
}
