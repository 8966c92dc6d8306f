package feedback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// replayAllocBound is the most Open may allocate replaying an n-byte
// log: a fixed allowance for the directory walk and the file handles,
// plus a per-byte factor covering the file read, the decoded records
// (a minimal 50-byte frame becomes a ~100-byte Record and its feature
// slice), the deduped view's growth and its fingerprint index.
func replayAllocBound(n int) uint64 { return 1<<20 + 64*uint64(n) }

// openChecked opens dir and enforces the replay contract on untrusted
// bytes: no panic, allocation bounded by the log length n, and any
// error typed as ErrBadFormat or ErrUnknownVersion. It returns the
// store, or nil when Open refused the log.
func openChecked(t *testing.T, dir string, n int) *Store {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir, Config{})
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > replayAllocBound(n) {
		t.Fatalf("Open allocated %d bytes replaying a %d-byte log (bound %d)", alloc, n, replayAllocBound(n))
	}
	if err != nil {
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrUnknownVersion) {
			t.Fatalf("Open error is untyped: %v", err)
		}
		return nil
	}
	return s
}

// snapshotBytes encodes a store's snapshot frame by frame, so two
// snapshots compare bit for bit (NaN features and scores included).
func snapshotBytes(s *Store) []byte {
	var b []byte
	for _, rec := range s.Snapshot() {
		b = appendFrame(b, rec)
	}
	return b
}

// checkReplay writes data as the named log file in a fresh directory
// and opens it. When the first Open recovers, a second Open of the same
// directory must return the same Snapshot: recovery leaves a log that
// replays to exactly what it reported.
func checkReplay(t *testing.T, name string, data []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openChecked(t, dir, len(data))
	if s == nil {
		return
	}
	first := snapshotBytes(s)
	s.Close()
	s2 := openChecked(t, dir, len(data))
	if s2 == nil {
		t.Fatalf("%s: second Open refused a log the first recovered", name)
	}
	defer s2.Close()
	if second := snapshotBytes(s2); !bytes.Equal(first, second) {
		t.Fatalf("%s: second Open replayed %d records, first %d, or their contents differ", name, s2.Len(), s.Len())
	}
}

// fuzzFrame frames an arbitrary payload with its length and CRC, the
// way appendFrame does, so a seed reaches decodeRecord.
func fuzzFrame(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
	return append(f, payload...)
}

// FuzzReplay feeds arbitrary bytes to the log replay, once as the
// active log (which cuts a torn tail back to its last complete frame)
// and once as a sealed segment (which refuses any damage). Contract:
// openChecked's, and a recovered log replays the same on reopen.
func FuzzReplay(f *testing.F) {
	header := binary.LittleEndian.AppendUint32([]byte(logMagic), logVersion)
	valid := append([]byte(nil), header...)
	for i := 0; i < 3; i++ {
		valid = appendFrame(valid, testRecord(i, Verdict(i%3)))
	}
	f.Add(valid)
	for _, cut := range []int{0, 5, headerSize, headerSize + 3, headerSize + 20, len(valid) - 1} {
		f.Add(valid[:cut])
	}

	flipped := append([]byte(nil), valid...)
	flipped[headerSize+4] ^= 0x01 // first frame's CRC
	f.Add(flipped)

	huge := append([]byte(nil), header...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFFFFFFFF)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(append(huge, 1, 2, 3, 4))

	one := appendFrame(nil, testRecord(7, VerdictBenign))[frameHeaderSize:]
	dimZero := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(dimZero, 0)
	f.Add(append(append([]byte(nil), header...), fuzzFrame(dimZero)...))

	badVerdict := append([]byte(nil), one...)
	badVerdict[4+3*8+24] = 9 // verdict byte after the 3 features
	f.Add(append(append([]byte(nil), header...), fuzzFrame(badVerdict)...))

	v2 := binary.LittleEndian.AppendUint32([]byte(logMagic), 2)
	f.Add(append(v2, valid[headerSize:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, activeName, data)
		checkReplay(t, "seg-00000001.log", data)
	})
}
