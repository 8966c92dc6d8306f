package core

import (
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"targad/internal/monitor"
	"targad/internal/nn"
	"targad/internal/rng"
)

// Versioned gob envelope. Every file this package writes — saved
// models and training checkpoints — starts with the same header, so a
// reader can tell "not one of our files" from "a newer format than
// this binary understands" and say so, instead of surfacing a
// confusing gob decode failure from misaligned payloads.
const (
	persistMagic = "TARGADGOB"

	kindModel      = "model"
	kindCheckpoint = "checkpoint"

	// modelFormatVersion is bumped whenever savedModel changes
	// incompatibly; checkpointFormatVersion likewise for
	// checkpointFile.
	//
	// v1: classifier parameters, metadata, identification thresholds.
	// v2: adds the optional monitoring reference profile (Profile
	//     field). v1 files keep decoding — gob leaves the absent field
	//     nil and monitoring disables itself gracefully.
	// v3: writes the thresholds and the profile's decision mix as
	//     strategy-sorted lists (ThresholdList, ProfileMix) instead of
	//     gob maps, whose random iteration order made two saves of one
	//     model differ byte for byte. v1/v2 maps still decode.
	modelFormatVersion      = 3
	checkpointFormatVersion = 1
)

// ErrBadFormat reports a stream that does not carry this package's
// envelope at all (wrong magic or wrong kind).
var ErrBadFormat = errors.New("targad: not a recognized save file")

// ErrUnknownVersion reports an envelope from a newer (or otherwise
// unsupported) format version.
var ErrUnknownVersion = errors.New("targad: unsupported save-file version")

// envelope is the self-describing header preceding every payload.
type envelope struct {
	Magic   string
	Kind    string
	Version int
}

// writeEnvelope encodes the header followed by the payload on one gob
// stream.
func writeEnvelope(w io.Writer, kind string, version int, payload any) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(envelope{Magic: persistMagic, Kind: kind, Version: version}); err != nil {
		return err
	}
	return enc.Encode(payload)
}

// readEnvelope validates the header and decodes the payload.
func readEnvelope(r io.Reader, wantKind string, maxVersion int, payload any) error {
	dec := gob.NewDecoder(r)
	var h envelope
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("%w (header: %v)", ErrBadFormat, err)
	}
	if h.Magic != persistMagic || h.Kind != wantKind {
		return fmt.Errorf("%w (magic %q, kind %q, want kind %q)", ErrBadFormat, h.Magic, h.Kind, wantKind)
	}
	if h.Version < 1 || h.Version > maxVersion {
		return fmt.Errorf("%w: file is %s v%d, this build reads up to v%d",
			ErrUnknownVersion, h.Kind, h.Version, maxVersion)
	}
	if err := dec.Decode(payload); err != nil {
		// A payload that dies mid-gob (truncated file, corrupted
		// stream) is as unreadable as a wrong-magic one; keep the
		// typed error so callers need only one check.
		return fmt.Errorf("%w (payload: %v)", ErrBadFormat, err)
	}
	return nil
}

// savedModel is the gob wire format of a trained TargAD model: the
// classifier parameters plus the metadata needed to rebuild an
// identical network and reproduce scoring and identification.
type savedModel struct {
	M, K      int
	Dim       int
	ClfHidden []int
	// Thresholds maps OODStrategy (as int) to its calibrated ID-ness
	// cut (v1/v2 only; v3 writes ThresholdList).
	Thresholds map[int]float64
	Params     [][]float64

	// Profile is the monitoring reference captured at Fit time
	// (format v2+; nil in v1 files and for fits whose capture
	// degenerated). A loaded profile that fails validation is dropped
	// rather than failing the load — scoring never depends on it. v3
	// writes it with a nil Mix and carries the mix in ProfileMix.
	Profile *monitor.Profile

	// ThresholdList and ProfileMix (v3) are Thresholds and Profile.Mix
	// in increasing strategy order, so Save is byte-deterministic.
	ThresholdList []savedThreshold
	ProfileMix    []savedMix
}

type savedThreshold struct {
	Strategy int
	Cut      float64
}

type savedMix struct {
	Strategy int
	Mix      [3]float64
}

// Save serializes the trained classifier and scoring metadata inside
// the versioned envelope. The candidate-selection artifacts
// (autoencoders, cluster assignments) are training-time state and are
// not persisted — a loaded model can Score and Identify but not
// resume training (training resumption is the checkpoint file's job).
func (mo *Model) Save(w io.Writer) error {
	if mo.clf == nil {
		return errors.New("targad: cannot save an unfitted model")
	}
	hidden := mo.cfg.ClfHidden
	if len(hidden) == 0 {
		hidden = defaultClfHidden(mo.dim)
	}
	s := savedModel{
		M:         mo.m,
		K:         mo.k,
		Dim:       mo.dim,
		ClfHidden: hidden,
		Params:    snapshotParams(mo.clf),
	}
	for strat, thr := range mo.idThreshold {
		s.ThresholdList = append(s.ThresholdList, savedThreshold{int(strat), thr})
	}
	slices.SortFunc(s.ThresholdList, func(a, b savedThreshold) int { return cmp.Compare(a.Strategy, b.Strategy) })
	if mo.profile != nil {
		p := *mo.profile
		p.Mix = nil
		s.Profile = &p
		for strat, mix := range mo.profile.Mix {
			s.ProfileMix = append(s.ProfileMix, savedMix{strat, mix})
		}
		slices.SortFunc(s.ProfileMix, func(a, b savedMix) int { return cmp.Compare(a.Strategy, b.Strategy) })
	}
	return writeEnvelope(w, kindModel, modelFormatVersion, &s)
}

// Load reads a model previously written by Save and returns a Model
// ready for Score, Probabilities, and Identify. A stream that is not a
// TargAD save file fails with ErrBadFormat; a save from a newer format
// version fails with ErrUnknownVersion.
func Load(r io.Reader) (*Model, error) {
	var s savedModel
	if err := readEnvelope(r, kindModel, modelFormatVersion, &s); err != nil {
		return nil, fmt.Errorf("targad: load: %w", err)
	}
	if s.M < 1 || s.K < 1 || s.Dim < 1 {
		return nil, fmt.Errorf("targad: load: invalid metadata m=%d k=%d dim=%d", s.M, s.K, s.Dim)
	}
	dims := append([]int{s.Dim}, s.ClfHidden...)
	dims = append(dims, s.M+s.K)
	clf, err := nn.NewMLP(nn.MLPConfig{Dims: dims, Hidden: nn.ReLU, Output: nn.Identity, Init: nn.HeNormal}, rng.New(0))
	if err != nil {
		return nil, fmt.Errorf("targad: load: %w", err)
	}
	params := clf.Params()
	if len(params) != len(s.Params) {
		return nil, fmt.Errorf("targad: load: %d param tensors, saved %d", len(params), len(s.Params))
	}
	for i, p := range params {
		if len(p.Data) != len(s.Params[i]) {
			return nil, fmt.Errorf("targad: load: param %d has %d values, saved %d", i, len(p.Data), len(s.Params[i]))
		}
		copy(p.Data, s.Params[i])
	}
	mo := New(Config{ClfHidden: s.ClfHidden}, 0)
	mo.m = s.M
	mo.k = s.K
	mo.dim = s.Dim
	mo.clf = clf
	for strat, thr := range s.Thresholds {
		mo.idThreshold[OODStrategy(strat)] = thr
	}
	for _, t := range s.ThresholdList {
		mo.idThreshold[OODStrategy(t.Strategy)] = t.Cut
	}
	if s.Profile != nil && len(s.ProfileMix) > 0 {
		s.Profile.Mix = make(map[int][3]float64, len(s.ProfileMix))
		for _, m := range s.ProfileMix {
			s.Profile.Mix[m.Strategy] = m.Mix
		}
	}
	if s.Profile != nil && s.Profile.Validate() == nil && s.Profile.Dim() == s.Dim {
		mo.profile = s.Profile
	}
	return mo, nil
}
