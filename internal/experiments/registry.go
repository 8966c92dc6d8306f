package experiments

import (
	"targad/internal/baselines/adoa"
	"targad/internal/baselines/deepsad"
	"targad/internal/baselines/devnet"
	"targad/internal/baselines/dplan"
	"targad/internal/baselines/dualmgan"
	"targad/internal/baselines/feawad"
	"targad/internal/baselines/iforest"
	"targad/internal/baselines/piawal"
	"targad/internal/baselines/prenet"
	"targad/internal/baselines/pumad"
	"targad/internal/baselines/repen"
	"targad/internal/core"
	"targad/internal/detector"
)

// ModelEntry pairs a display name with a detector factory.
type ModelEntry struct {
	Name    string
	New     detector.Factory
	Semisup bool // uses labeled anomalies (false for iForest/REPEN)
}

// Models returns the full roster of Table II in the paper's row
// order: the eleven baselines followed by TargAD, optionally filtered
// by rc.ModelFilter.
func Models(rc RunConfig) []ModelEntry {
	return filterModels(rc.ModelFilter, []ModelEntry{
		{"iForest", func(seed int64) detector.Detector {
			return iforest.New(iforest.DefaultConfig(seed))
		}, false},
		{"REPEN", func(seed int64) detector.Detector {
			return repen.New(repen.DefaultConfig(seed))
		}, false},
		{"ADOA", func(seed int64) detector.Detector {
			return adoa.New(adoa.DefaultConfig(seed))
		}, true},
		{"FEAWAD", func(seed int64) detector.Detector {
			return feawad.New(feawad.DefaultConfig(seed))
		}, true},
		{"PUMAD", func(seed int64) detector.Detector {
			return pumad.New(pumad.DefaultConfig(seed))
		}, true},
		{"DevNet", func(seed int64) detector.Detector {
			return devnet.New(devnet.DefaultConfig(seed))
		}, true},
		{"DeepSAD", func(seed int64) detector.Detector {
			return deepsad.New(deepsad.DefaultConfig(seed))
		}, true},
		{"DPLAN", func(seed int64) detector.Detector {
			return dplan.New(dplan.DefaultConfig(seed))
		}, true},
		{"PIA-WAL", func(seed int64) detector.Detector {
			return piawal.New(piawal.DefaultConfig(seed))
		}, true},
		{"Dual-MGAN", func(seed int64) detector.Detector {
			return dualmgan.New(dualmgan.DefaultConfig(seed))
		}, true},
		{"PReNet", func(seed int64) detector.Detector {
			return prenet.New(prenet.DefaultConfig(seed))
		}, true},
		{"TargAD", func(seed int64) detector.Detector {
			return core.New(rc.targadConfig(), seed)
		}, true},
	})
}

// filterModels applies the ModelFilter, always keeping TargAD.
func filterModels(filter []string, all []ModelEntry) []ModelEntry {
	if len(filter) == 0 {
		return all
	}
	keep := map[string]bool{"TargAD": true}
	for _, n := range filter {
		keep[n] = true
	}
	var out []ModelEntry
	for _, m := range all {
		if keep[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

// SemiSupervisedModels returns the semi/weakly-supervised subset plus
// TargAD — the roster of the robustness figures (Fig. 4).
func SemiSupervisedModels(rc RunConfig) []ModelEntry {
	var out []ModelEntry
	for _, m := range Models(rc) {
		if m.Semisup {
			out = append(out, m)
		}
	}
	return out
}

// ModelByName returns the entry with the given name, or false.
func ModelByName(rc RunConfig, name string) (ModelEntry, bool) {
	for _, m := range Models(rc) {
		if m.Name == name {
			return m, true
		}
	}
	return ModelEntry{}, false
}

// modelNames lists the entries' display names.
func modelNames(models []ModelEntry) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name
	}
	return out
}
