// Package feedback is the analyst verdict store: an append-only,
// crash-safe record log of the labels analysts attach to served
// scores. It is the data source that closes the loop the paper leaves
// open — D_L is tiny and static at Fit time, but every served row an
// analyst confirms as a target (or dismisses as benign or non-target)
// is a new training label, and internal/retrain merges the stored
// verdicts back into D_L/D_U on the next retraining run.
//
// The on-disk format follows the persist.go envelope conventions of
// internal/core: every log file opens with a magic string and a format
// version, a stream that is not ours fails with a typed ErrBadFormat
// and a newer format with ErrUnknownVersion. Unlike the gob envelope,
// the payload is a sequence of length-prefixed, CRC-guarded record
// frames, because the store appends one record at a time and must
// recover cleanly from a crash mid-append: on Open, a truncated or
// corrupted tail of the active log is cut back to the last complete
// frame and the store keeps going — no byte prefix of a valid log can
// panic or lose previously synced records.
//
// Records are deduplicated by a fingerprint of the feature row: an
// analyst re-labeling the same row appends a new frame (the log keeps
// full history) but the in-memory view keeps one record per row with
// the latest verdict winning, in stable first-seen order — the
// ordering retraining relies on for bitwise-reproducible merges.
package feedback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"targad/internal/atomicfile"
)

// Log-format constants. The magic deliberately differs from core's
// "TARGADGOB": a verdict log handed to core.Load (or vice versa) must
// fail as "not one of this reader's files", not decode garbage.
const (
	logMagic   = "TARGADFBK"
	logVersion = 1

	// headerSize is the fixed file header: magic + uint32 version.
	headerSize = len(logMagic) + 4
	// frameHeaderSize prefixes every record: uint32 payload length +
	// uint32 CRC32 (IEEE) of the payload.
	frameHeaderSize = 8
	// maxPayload bounds a single record frame; anything larger marks a
	// corrupted length prefix rather than a plausible record.
	maxPayload = 16 << 20

	// activeName is the log currently appended to; sealed segments are
	// renamed to segmentPattern in rotation order.
	activeName     = "current.log"
	segmentPattern = "seg-%08d.log"
	segmentGlob    = "seg-*.log"
)

// ErrBadFormat reports a file that does not carry this package's log
// envelope (wrong magic) or a sealed segment whose body is corrupted.
var ErrBadFormat = errors.New("feedback: not a recognized verdict log")

// ErrUnknownVersion reports a log written by a newer format version.
var ErrUnknownVersion = errors.New("feedback: unsupported verdict-log version")

// Verdict is the analyst's three-way call on a served row, mirroring
// the ground-truth kinds of the problem definition: the row is a
// target anomaly (a new D_L label), a non-target anomaly, or benign.
type Verdict uint8

// Analyst verdicts.
const (
	VerdictTarget Verdict = iota
	VerdictNonTarget
	VerdictBenign
)

// String returns the API spelling of the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictTarget:
		return "target"
	case VerdictNonTarget:
		return "non-target"
	case VerdictBenign:
		return "benign"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// ParseVerdict maps the API spelling back to the enum.
func ParseVerdict(s string) (Verdict, bool) {
	switch s {
	case "target":
		return VerdictTarget, true
	case "non-target", "nontarget":
		return VerdictNonTarget, true
	case "benign", "normal":
		return VerdictBenign, true
	default:
		return 0, false
	}
}

// Record is one analyst verdict on one served row.
type Record struct {
	// Features is the feature row exactly as served.
	Features []float64
	// Score is the served S^tar score.
	Score float64
	// Decision is the served three-way decision ("normal", "target",
	// "non-target"), or "" when the serving model made none.
	Decision string
	// Verdict is the analyst's call.
	Verdict Verdict
	// TargetType is the target anomaly type index for target verdicts
	// (ignored otherwise).
	TargetType int
	// ModelVersion is the serving generation that produced the score.
	ModelVersion int64
	// ReceivedAt is when the store accepted the verdict (UTC).
	ReceivedAt time.Time
}

// Fingerprint returns the dedup key of a feature row: FNV-1a over the
// row's IEEE-754 bytes. Identical rows — the only rows an analyst can
// be re-labeling — always collide; distinct rows collide with hash
// probability only, which costs a lost older verdict, never a crash.
func Fingerprint(features []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range features {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// Config tunes the store. Zero values take usable defaults.
type Config struct {
	// RotateBytes seals the active log into a read-only segment once
	// it grows past this size (default 1 MiB; <0 disables rotation).
	RotateBytes int64
}

// Store is the verdict store over one directory. Safe for concurrent
// use.
type Store struct {
	dir string
	cfg Config

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    int // next sealed-segment ordinal
	byFP   map[uint64]int
	recs   []Record // deduped view, first-seen order, latest verdict wins
	frames int64    // frames ever appended (this process)
	dups   int64    // appends that revised an existing row
	buf    []byte   // frame scratch
}

// Open loads (or initializes) the verdict store in dir, replaying any
// existing log. A crash-truncated active log recovers cleanly to its
// last complete frame; a file that is not a verdict log fails with
// ErrBadFormat, a newer format with ErrUnknownVersion.
func Open(dir string, cfg Config) (*Store, error) {
	if cfg.RotateBytes == 0 {
		cfg.RotateBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: open: %w", err)
	}
	s := &Store{dir: dir, cfg: cfg, byFP: make(map[uint64]int)}

	segs, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, fmt.Errorf("feedback: open: %w", err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		if err := s.replayFile(seg, false); err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(filepath.Base(seg), segmentPattern, &n); err == nil && n >= s.seq {
			s.seq = n + 1
		}
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// openActive replays and opens the active log for appending, creating
// it (atomically, via createActive) when absent.
func (s *Store) openActive() error {
	path := filepath.Join(s.dir, activeName)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := s.createActive(path); err != nil {
			return err
		}
	} else if err != nil {
		return fmt.Errorf("feedback: open: %w", err)
	} else if err := s.replayFile(path, true); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("feedback: open: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("feedback: open: %w", err)
	}
	s.f, s.size = f, st.Size()
	return nil
}

// createActive writes a fresh header-only active log through
// atomicfile.Write, so a crash mid-create never leaves a half-written
// header in place.
func (s *Store) createActive(path string) error {
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, logMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, logVersion)
	if err := atomicfile.Write(path, func(w io.Writer) error { _, err := w.Write(hdr); return err }); err != nil {
		return fmt.Errorf("feedback: create log: %w", err)
	}
	return nil
}

// replayFile loads one log file into the in-memory view. active
// selects the recovery policy: the active log truncates a torn tail
// (crash mid-append) back to the last complete frame, while a sealed
// segment — only ever produced by a clean rotation — treats any
// damage as ErrBadFormat.
func (s *Store) replayFile(path string, active bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("feedback: replay %s: %w", filepath.Base(path), err)
	}
	if len(data) < headerSize {
		// createActive never exposes a short header, so an outside
		// truncation of the active log left it. Rebuild the file;
		// there is nothing to lose.
		if active {
			return s.createActive(path)
		}
		return fmt.Errorf("%w: segment %s is %d bytes, shorter than the %d-byte header",
			ErrBadFormat, filepath.Base(path), len(data), headerSize)
	}
	if string(data[:len(logMagic)]) != logMagic {
		return fmt.Errorf("%w: %s has magic %q", ErrBadFormat, filepath.Base(path), data[:len(logMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(logMagic):headerSize]); v < 1 || v > logVersion {
		return fmt.Errorf("%w: %s is v%d, this build reads up to v%d",
			ErrUnknownVersion, filepath.Base(path), v, logVersion)
	}

	off := headerSize
	good := off // end of the last fully valid frame
	for off < len(data) {
		if len(data)-off < frameHeaderSize {
			break // torn frame header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n <= 0 || n > maxPayload || len(data)-off-frameHeaderSize < n {
			break // implausible length or torn payload
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or torn write
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break
		}
		s.insert(rec)
		off += frameHeaderSize + n
		good = off
	}
	if good < len(data) {
		if !active {
			return fmt.Errorf("%w: segment %s is corrupted at offset %d", ErrBadFormat, filepath.Base(path), good)
		}
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("feedback: recover %s: %w", filepath.Base(path), err)
		}
	}
	return nil
}

// insert merges one replayed or appended record into the deduped view.
func (s *Store) insert(rec Record) (added bool) {
	fp := Fingerprint(rec.Features)
	if i, ok := s.byFP[fp]; ok {
		s.recs[i] = rec
		return false
	}
	s.byFP[fp] = len(s.recs)
	s.recs = append(s.recs, rec)
	return true
}

// Append records one verdict: the frame goes to the active log and is
// fsynced before Append returns, so an acknowledged verdict survives a
// crash; the in-memory view dedups by feature fingerprint (a re-labeled
// row keeps its first-seen position, latest verdict wins). added
// reports whether the row was new. The record's feature slice is
// copied; the caller keeps ownership of its argument.
func (s *Store) Append(rec Record) (added bool, err error) {
	if len(rec.Features) == 0 {
		return false, errors.New("feedback: record needs at least one feature")
	}
	if rec.ReceivedAt.IsZero() {
		rec.ReceivedAt = time.Now().UTC()
	}
	rec.Features = append([]float64(nil), rec.Features...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return false, errors.New("feedback: store is closed")
	}
	s.buf = appendFrame(s.buf[:0], rec)
	if _, err := s.f.Write(s.buf); err != nil {
		return false, fmt.Errorf("feedback: append: %w", err)
	}
	s.size += int64(len(s.buf))
	if err := s.f.Sync(); err != nil {
		return false, fmt.Errorf("feedback: append: %w", err)
	}
	s.frames++
	added = s.insert(rec)
	if !added {
		s.dups++
	}
	if s.cfg.RotateBytes > 0 && s.size >= s.cfg.RotateBytes {
		if err := s.rotateLocked(); err != nil {
			return added, err
		}
	}
	return added, nil
}

func (s *Store) rotateLocked() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("feedback: rotate: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("feedback: rotate: %w", err)
	}
	s.f = nil
	active := filepath.Join(s.dir, activeName)
	sealed := filepath.Join(s.dir, fmt.Sprintf(segmentPattern, s.seq))
	if err := os.Rename(active, sealed); err != nil {
		return fmt.Errorf("feedback: rotate: %w", err)
	}
	s.seq++
	if err := s.createActive(active); err != nil {
		return err
	}
	f, err := os.OpenFile(active, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: rotate: %w", err)
	}
	s.f, s.size = f, int64(headerSize)
	return nil
}

// Snapshot returns the deduped records in stable first-seen order —
// the deterministic ordering retraining merges rely on. The returned
// slice is a copy; the records (and their feature slices) are shared
// and must be treated as read-only.
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// SnapshotWithTTL is Snapshot restricted to verdicts whose ReceivedAt
// is no older than ttl before now: stale verdicts decay out of
// retraining merges without being erased from the log (a later Open
// still replays them, and a re-label refreshes the row's ReceivedAt).
// ttl <= 0 disables expiry. The filter is deterministic in (now, ttl)
// and order-stable — surviving records keep their first-seen order —
// so a TTL'd merge is exactly as reproducible as a full one.
func (s *Store) SnapshotWithTTL(now time.Time, ttl time.Duration) []Record {
	if ttl <= 0 {
		return s.Snapshot()
	}
	cutoff := now.Add(-ttl)
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		if !rec.ReceivedAt.Before(cutoff) {
			out = append(out, rec)
		}
	}
	return out
}

// LenWithTTL counts the distinct labeled rows SnapshotWithTTL would
// return, without copying them — the retrain trigger's cheap gate.
func (s *Store) LenWithTTL(now time.Time, ttl time.Duration) int {
	if ttl <= 0 {
		return s.Len()
	}
	cutoff := now.Add(-ttl)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range s.recs {
		if !rec.ReceivedAt.Before(cutoff) {
			n++
		}
	}
	return n
}

// Len returns the number of distinct labeled rows.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Has reports whether a row with this fingerprint is already labeled —
// the acquisition queue's filter for rows not worth asking about again.
func (s *Store) Has(fp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byFP[fp]
	return ok
}

// Stats returns the append counters of this process: total frames
// written and how many revised an existing row.
func (s *Store) Stats() (frames, duplicates int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames, s.dups
}

// Close syncs and closes the active log. The store rejects appends
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// appendFrame encodes rec as one length-prefixed, CRC-guarded frame.
// Layout (little-endian): u32 dim, dim f64 features, f64 score,
// i64 model version, i64 received-at unix-nanos, u8 verdict,
// u32 target type, u8 decision length, decision bytes.
func appendFrame(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	p := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Features)))
	for _, v := range rec.Features {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Score))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ModelVersion))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.ReceivedAt.UnixNano()))
	dst = append(dst, byte(rec.Verdict))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.TargetType))
	if len(rec.Decision) > 255 {
		rec.Decision = rec.Decision[:255]
	}
	dst = append(dst, byte(len(rec.Decision)))
	dst = append(dst, rec.Decision...)
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeRecord parses one frame payload (appendFrame's layout).
func decodeRecord(p []byte) (Record, error) {
	var rec Record
	if len(p) < 4 {
		return rec, errors.New("short feature count")
	}
	dim := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if dim <= 0 || len(p) < dim*8 {
		return rec, errors.New("short feature block")
	}
	rec.Features = make([]float64, dim)
	for i := range rec.Features {
		rec.Features[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	p = p[dim*8:]
	if len(p) < 8+8+8+1+4+1 {
		return rec, errors.New("short record trailer")
	}
	rec.Score = math.Float64frombits(binary.LittleEndian.Uint64(p))
	rec.ModelVersion = int64(binary.LittleEndian.Uint64(p[8:]))
	rec.ReceivedAt = time.Unix(0, int64(binary.LittleEndian.Uint64(p[16:]))).UTC()
	rec.Verdict = Verdict(p[24])
	if rec.Verdict > VerdictBenign {
		return rec, fmt.Errorf("unknown verdict %d", p[24])
	}
	rec.TargetType = int(binary.LittleEndian.Uint32(p[25:]))
	dlen := int(p[29])
	p = p[30:]
	if len(p) != dlen {
		return rec, errors.New("decision length disagrees with payload")
	}
	rec.Decision = string(p)
	return rec, nil
}
