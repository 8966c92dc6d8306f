// Package atomicfile replaces a file's contents in one step: a reader
// of the path sees either the old file or the complete new one, never
// a partial write, and the new contents are on disk before they
// become visible under the path.
package atomicfile

import (
	"bufio"
	"io"
	"os"
)

// Write writes the new contents of path through write, which receives
// a buffered writer over path+".tmp" in the same directory. The
// temporary file is flushed, synced and closed, then renamed over
// path. On any failure — write's own error included — the temporary
// file is removed and path is left as it was.
func Write(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
