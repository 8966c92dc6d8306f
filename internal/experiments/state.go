package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"targad/internal/atomicfile"
)

// stateVersion is bumped whenever the JSON layout of a state file
// changes incompatibly; OpenState rejects any other version instead of
// misreading it. Version 1 held cell aggregates with no configuration.
const stateVersion = 2

// runResult is the persisted result of one successful run of a cell.
type runResult struct {
	AUPRC, AUROC float64
}

// stateFile is the on-disk layout of an experiment's resume state.
type stateFile struct {
	Version int
	// Runs maps a run key (see runKey) to that run's result.
	Runs map[string]runResult
}

// State is the per-experiment resume store: a JSON file accumulating
// completed runs so an interrupted experiment (crash, ^C, -timeout)
// continues from the last finished run instead of starting over. A
// nil *State disables caching and is valid everywhere.
type State struct {
	path string

	mu   sync.Mutex
	runs map[string]runResult
}

// OpenState loads (or initializes) the state file at path.
func OpenState(path string) (*State, error) {
	s := &State{path: path, runs: make(map[string]runResult)}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: state %s: %w", path, err)
	}
	var f stateFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("experiments: state %s is not a valid state file: %w", path, err)
	}
	if f.Version != stateVersion {
		return nil, fmt.Errorf("experiments: state %s has version %d, this build reads only %d", path, f.Version, stateVersion)
	}
	if f.Runs != nil {
		s.runs = f.Runs
	}
	return s, nil
}

// lookup returns the recorded result for key, if any. Nil-safe.
func (s *State) lookup(key string) (runResult, bool) {
	if s == nil {
		return runResult{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[key]
	return r, ok
}

// put records a completed run and rewrites the file atomically, so a
// crash mid-write never corrupts the store. Nil-safe no-op.
func (s *State) put(key string, r runResult) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs[key] = r
	err := atomicfile.Write(s.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(stateFile{Version: stateVersion, Runs: s.runs})
	})
	if err != nil {
		return fmt.Errorf("experiments: state %s: %w", s.path, err)
	}
	return nil
}

// runKey is the state key of one run of a cell. config is
// RunConfig.fingerprint, so configurations share a file without mixing.
func runKey(config, cell string, run int) string {
	return fmt.Sprintf("%s|%s|run=%d", config, cell, run)
}

// fingerprint renders every RunConfig field that changes a run's
// result. The generator options and TargAD's configuration are pure
// functions of these fields plus the cell, so they need no entry of
// their own. Runs, ModelFilter and StateDir change which runs and
// cells are computed, never a run's result, and are left out.
func (rc RunConfig) fingerprint() string {
	return fmt.Sprintf("scale=%v seed=%d ae-epochs=%d clf-epochs=%d ae-lr=%v clf-lr=%v labeled=%d",
		rc.Scale, rc.Seed, rc.AEEpochs, rc.ClfEpochs, rc.AELR, rc.ClfLR, rc.LabeledPerType)
}

// state opens the named experiment's resume store under rc.StateDir,
// or returns nil (caching disabled) when no StateDir is configured.
func (rc RunConfig) state(name string) (*State, error) {
	if rc.StateDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(rc.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: state dir: %w", err)
	}
	return OpenState(filepath.Join(rc.StateDir, name+".json"))
}
