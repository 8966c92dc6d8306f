// Package synth generates the four benchmark datasets of the paper's
// evaluation as synthetic equivalents (the originals are either
// download-gated or proprietary; see DESIGN.md §4).
//
// Each dataset profile reproduces the *structure* the TargAD mechanics
// depend on rather than packet or transaction semantics:
//
//   - normal data is a mixture of k Gaussian groups with
//     group-specific signatures (the paper's "hidden normal groups");
//   - each anomaly type perturbs normal instances inside its own
//     deterministic feature subspace with a type-specific pattern
//     (mean shift, uniform scatter, sparse spikes, or correlated
//     drift), so types are mutually distinguishable, anomalies of any
//     type reconstruct poorly under normal-trained autoencoders, and
//     anomaly types withheld from training behave as genuinely novel
//     (out-of-distribution) at test time;
//   - split sizes and class ratios follow Table I, scaled by
//     Options.Scale so the full suite runs on a small machine.
package synth

import (
	"fmt"
	"math"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/rng"
)

// Pattern selects how an anomaly type perturbs a normal instance.
type Pattern int

// Anomaly perturbation patterns.
const (
	// PatternShift adds a fixed signed offset inside the subspace.
	PatternShift Pattern = iota
	// PatternScatter replaces subspace features with uniform noise.
	PatternScatter
	// PatternSpike drives a sparse subspace toward extreme values.
	PatternSpike
	// PatternCorrelated adds one shared latent shock across the
	// subspace, producing correlations absent from normal data.
	PatternCorrelated
)

// TypeSpec describes one anomaly type.
type TypeSpec struct {
	Name string
	// Pattern is the perturbation mechanism.
	Pattern Pattern
	// Strength scales the perturbation magnitude (typ. 0.3–0.7).
	Strength float64
	// SubspaceFrac is the fraction of features the type perturbs.
	SubspaceFrac float64
	// Variants is how many behavioural variants the type has (0 ⇒ 3).
	// Variants share the type's subspace but deviate in different
	// directions, so a class with several variants is not linearly
	// separable and a few dozen labels cannot fully characterize it.
	// Target classes in the paper's scenarios are focused behaviours
	// (fraud, backdoors) — few variants; non-target classes are
	// sprawling families (fuzzing, probing, click farming) — many.
	Variants int
	// RandomSubspace, when true, draws each INSTANCE's perturbed
	// dims afresh from a type-specific pool three times the subspace
	// size, with per-instance directions. Such a family has no
	// compact signature an encoder could compress toward the normal
	// manifold — the property that makes sprawling low-risk anomaly
	// families (fuzzing, probing, click farming) a false-positive
	// factory for one-class and reconstruction detectors, while
	// outlier-exposure supervision can still learn to flag "anything
	// off-manifold".
	RandomSubspace bool
	// CommonScale multiplies the dataset-wide shared anomalous
	// component for this type (0 ⇒ 1). The paper's scenarios make
	// low-risk non-target anomalies conspicuously abnormal (click
	// farming, probes, fuzzing floods) while high-risk target
	// anomalies are subtler (fraud, backdoors); profiles encode that
	// by giving non-target types a larger CommonScale, which is what
	// drives risk-agnostic detectors to rank non-targets first and
	// suffer the false positives TargAD avoids.
	CommonScale float64
}

// Comp is the composition of an evaluation split.
type Comp struct {
	Normal, Target, NonTarget int
}

// Profile describes one benchmark dataset at scale 1.0.
type Profile struct {
	Name string
	// Dim is the feature dimensionality (Table I's D*).
	Dim int
	// NormalGroups is the number of hidden normal groups k.
	NormalGroups int
	// Anomalies lists every anomaly type in the dataset. The
	// target/non-target partition is chosen per run via Options.
	Anomalies []TypeSpec
	// DefaultTargets names the types the paper designates as target
	// anomaly classes.
	DefaultTargets []string
	// LabeledPerType is the default number of labeled target
	// anomalies per type.
	LabeledPerType int
	// TrainUnlabeled is |D_U| at scale 1.0.
	TrainUnlabeled int
	// Val and Test are the evaluation split compositions at scale 1.
	Val, Test Comp
	// EvalNormalContam emulates the SQB footnote: this fraction of
	// "normal" validation/testing rows is generated as anomalies but
	// ground-truth-labeled normal, because the platform's unlabeled
	// pool (which hides anomalies) is treated as normal for
	// evaluation.
	EvalNormalContam float64
}

// Options adjust generation per experiment.
type Options struct {
	// Scale multiplies every split size (0 ⇒ 1.0).
	Scale float64
	// Contamination is the anomaly fraction of the unlabeled pool
	// (0 ⇒ 0.05, the paper's default).
	Contamination float64
	// LabeledPerType, when > 0, sets the final number of labeled
	// target anomalies per type directly (it is NOT multiplied by
	// Scale); the profile default is scaled.
	LabeledPerType int
	// TargetTypes names the target anomaly classes (nil ⇒ profile
	// default). Every other profile type is non-target.
	TargetTypes []string
	// TrainNonTargetTypes restricts which non-target types appear in
	// the unlabeled pool (nil ⇒ all). Types excluded here still
	// appear in validation/testing as novel non-target anomalies —
	// the Fig. 4(a) protocol.
	TrainNonTargetTypes []string
	// Seed drives all sampling; runs with equal options and seed are
	// identical.
	Seed int64
}

// defaultVariants is the variant count for types that do not set one.
const defaultVariants = 3

type typeGen struct {
	spec     TypeSpec
	subspace []int
	// signs[v][i] is the direction of subspace dim i under variant v.
	signs [][]float64
	// poolDims is the RandomSubspace sampling pool (nil otherwise).
	poolDims []int
}

// commonGen is the anomalous component every anomaly type shares: in
// real data all anomalies — target or not — deviate from normal
// behaviour along common directions (unusual volumes, rates, ratios),
// which is exactly why risk-agnostic detectors rank non-target
// anomalies as high as target ones. Without it, types would live in
// disjoint subspaces and the false-positive problem the paper attacks
// would not exist.
type commonGen struct {
	subspace []int
	signs    []float64
	strength float64
}

// generator holds the deterministic dataset geometry: normal group
// parameters and per-type subspaces, derived from the profile name so
// every split and every run shares one geometry.
type generator struct {
	p          Profile
	groupMean  *mat.Matrix // NormalGroups×Dim
	groupStd   *mat.Matrix
	noiseDims  []bool // uninformative features, uniform noise for all
	types      map[string]*typeGen
	common     commonGen
	typeOrder  []string
	targetSet  map[string]bool
	targetIdx  map[string]int // type name → target type index [0,m)
	ntIdx      map[string]int // non-target name → id
	sampleRand *rng.RNG
}

func newGenerator(p Profile, targets []string, seed int64) (*generator, error) {
	// Geometry (normal groups, type subspaces) derives from the
	// profile name mixed with the seed: one run sees one consistent
	// dataset across splits, and repeated runs average over geometry
	// quirks the way the paper's 5 runs average over training noise.
	geo := rng.New(hashSeed(p.Name) ^ (seed * 0x7F4A7C15F39CC061))
	g := &generator{
		p:          p,
		groupMean:  mat.New(p.NormalGroups, p.Dim),
		groupStd:   mat.New(p.NormalGroups, p.Dim),
		types:      make(map[string]*typeGen),
		targetSet:  make(map[string]bool),
		targetIdx:  make(map[string]int),
		ntIdx:      make(map[string]int),
		sampleRand: rng.New(seed),
	}
	// Uninformative noise features: real tabular benchmarks carry a
	// large fraction of columns with no signal; they set a noise
	// floor for reconstruction residuals and distance computations.
	g.noiseDims = make([]bool, p.Dim)
	nr := geo.Split("noise")
	for _, d := range nr.Sample(p.Dim, max(2, p.Dim/8)) {
		g.noiseDims[d] = true
	}
	for gi := 0; gi < p.NormalGroups; gi++ {
		gr := geo.SplitN("group", gi)
		mean := g.groupMean.Row(gi)
		std := g.groupStd.Row(gi)
		for d := 0; d < p.Dim; d++ {
			mean[d] = gr.Uniform(0.35, 0.65)
			std[d] = gr.Uniform(0.03, 0.09)
		}
		// Group signature: a handful of features with distinct means,
		// giving k-means something to find.
		sig := gr.Sample(p.Dim, max(3, p.Dim/6))
		for _, d := range sig {
			if gr.Bernoulli(0.5) {
				mean[d] = gr.Uniform(0.1, 0.25)
			} else {
				mean[d] = gr.Uniform(0.75, 0.9)
			}
		}
	}
	cr := geo.Split("common")
	commonSize := max(3, p.Dim/10)
	g.common = commonGen{
		subspace: cr.Sample(p.Dim, commonSize),
		signs:    make([]float64, commonSize),
		strength: 0.3,
	}
	for i := range g.common.signs {
		if cr.Bernoulli(0.5) {
			g.common.signs[i] = 1
		} else {
			g.common.signs[i] = -1
		}
	}
	// Anomaly-relevant feature pool: every type draws roughly half of
	// its subspace from this shared pool, so the feature directions a
	// supervised detector learns from labeled target anomalies also
	// fire (partially) on non-target anomalies — the overlap that
	// real attack/fraud families exhibit and that causes the false
	// positives the paper documents.
	poolR := geo.Split("pool")
	pool := poolR.Sample(p.Dim, max(4, p.Dim/6))
	for ti, spec := range p.Anomalies {
		tr := geo.SplitN("type:"+spec.Name, ti)
		size := max(3, int(spec.SubspaceFrac*float64(p.Dim)))
		nv := spec.Variants
		if nv <= 0 {
			nv = defaultVariants
		}
		tg := &typeGen{
			spec:     spec,
			subspace: sampleWithPool(tr, p.Dim, size, pool),
			signs:    make([][]float64, nv),
		}
		for v := range tg.signs {
			tg.signs[v] = make([]float64, size)
			for i := range tg.signs[v] {
				if tr.Bernoulli(0.5) {
					tg.signs[v][i] = 1
				} else {
					tg.signs[v][i] = -1
				}
			}
		}
		if spec.RandomSubspace {
			poolSize := size * 3
			if poolSize > p.Dim {
				poolSize = p.Dim
			}
			tg.poolDims = sampleWithPool(tr.Split("rpool"), p.Dim, poolSize, pool)
		}
		g.types[spec.Name] = tg
		g.typeOrder = append(g.typeOrder, spec.Name)
	}
	if targets == nil {
		targets = p.DefaultTargets
	}
	for i, name := range targets {
		if _, ok := g.types[name]; !ok {
			return nil, fmt.Errorf("synth: unknown target type %q in profile %s", name, p.Name)
		}
		g.targetSet[name] = true
		g.targetIdx[name] = i
	}
	if len(g.targetIdx) == 0 {
		return nil, fmt.Errorf("synth: profile %s has no target types selected", p.Name)
	}
	nt := 0
	for _, name := range g.typeOrder {
		if !g.targetSet[name] {
			g.ntIdx[name] = nt
			nt++
		}
	}
	if nt == 0 {
		return nil, fmt.Errorf("synth: profile %s has no non-target types left", p.Name)
	}
	return g, nil
}

func hashSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// sampleWithPool draws a subspace of the given size: about half from
// the shared anomaly-relevant pool, the rest uniformly from all
// features, deduplicated.
func sampleWithPool(r *rng.RNG, dim, size int, pool []int) []int {
	fromPool := size * 4 / 5
	if fromPool > len(pool) {
		fromPool = len(pool)
	}
	chosen := make(map[int]bool, size)
	out := make([]int, 0, size)
	for _, pi := range r.Sample(len(pool), fromPool) {
		d := pool[pi]
		if !chosen[d] {
			chosen[d] = true
			out = append(out, d)
		}
	}
	for len(out) < size {
		d := r.Intn(dim)
		if !chosen[d] {
			chosen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// sampleNormal draws one normal instance from group gi into dst.
func (g *generator) sampleNormal(dst []float64, gi int, r *rng.RNG) {
	mean := g.groupMean.Row(gi)
	std := g.groupStd.Row(gi)
	for d := range dst {
		if g.noiseDims[d] {
			dst[d] = r.Float64()
			continue
		}
		v := r.Normal(mean[d], std[d])
		dst[d] = clamp01(v)
	}
}

// sampleAnomaly draws one anomaly of the named type into dst. The base
// is a random normal group sample, perturbed first along the shared
// anomalous component (common to all types) and then inside the
// type-specific subspace.
func (g *generator) sampleAnomaly(dst []float64, typeName string, r *rng.RNG) {
	tg := g.types[typeName]
	gi := r.Intn(g.p.NormalGroups)
	g.sampleNormal(dst, gi, r)
	cs := tg.spec.CommonScale
	if cs == 0 {
		cs = 1
	}
	for i, d := range g.common.subspace {
		dst[d] = clamp01(dst[d] + g.common.signs[i]*g.common.strength*cs*r.Uniform(0.6, 1.4))
	}
	// Intra-type heterogeneity: each instance expresses only a random
	// subset of its type's subspace at an instance-specific severity,
	// plus a few idiosyncratic features. Real attack and fraud
	// families vary this way, which is why a few dozen labels never
	// fully characterize a class — supervised detectors must
	// generalize, not memorize.
	const activeProb = 0.6
	severity := r.Uniform(0.6, 1.4)
	s := tg.spec.Strength * severity
	subspace := tg.subspace
	signs := tg.signs[r.Intn(len(tg.signs))]
	if tg.spec.RandomSubspace {
		idx := r.Sample(len(tg.poolDims), len(tg.subspace))
		sub := make([]int, len(idx))
		sg := make([]float64, len(idx))
		for i, pi := range idx {
			sub[i] = tg.poolDims[pi]
			if r.Bernoulli(0.5) {
				sg[i] = 1
			} else {
				sg[i] = -1
			}
		}
		subspace, signs = sub, sg
	}
	switch tg.spec.Pattern {
	case PatternShift:
		for i, d := range subspace {
			if !r.Bernoulli(activeProb) {
				continue
			}
			dst[d] = clamp01(dst[d] + signs[i]*s*r.Uniform(0.7, 1.3))
		}
	case PatternScatter:
		for _, d := range subspace {
			if !r.Bernoulli(activeProb) {
				continue
			}
			dst[d] = r.Float64()
		}
	case PatternSpike:
		for i, d := range subspace {
			if !r.Bernoulli(activeProb) {
				continue
			}
			if signs[i] > 0 {
				dst[d] = r.Uniform(1-s/2, 1)
			} else {
				dst[d] = r.Uniform(0, s/2)
			}
		}
	case PatternCorrelated:
		z := r.Normal(0, 1)
		for i, d := range subspace {
			if !r.Bernoulli(activeProb) {
				continue
			}
			dst[d] = clamp01(dst[d] + signs[i]*s*z*0.8)
		}
	}
	for j := 0; j < 3; j++ {
		dst[r.Intn(len(dst))] = r.Float64()
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 1 && n > 0 {
		v = 1
	}
	return v
}

// Generate builds a full dataset bundle (train/val/test) for the
// profile under the given options.
func Generate(p Profile, opt Options) (*dataset.Bundle, error) {
	scale := opt.Scale
	if scale <= 0 {
		scale = 1
	}
	contam := opt.Contamination
	if contam <= 0 {
		contam = 0.05
	}
	g, err := newGenerator(p, opt.TargetTypes, opt.Seed)
	if err != nil {
		return nil, err
	}
	r := g.sampleRand

	// --- Training split -------------------------------------------------
	labeledPer := scaled(p.LabeledPerType, scale)
	if opt.LabeledPerType > 0 {
		labeledPer = opt.LabeledPerType
	}

	targetNames := make([]string, len(g.targetIdx))
	for name, i := range g.targetIdx {
		targetNames[i] = name
	}
	m := len(targetNames)

	labeled := mat.New(labeledPer*m, p.Dim)
	labeledType := make([]int, labeled.Rows)
	row := 0
	for ti, name := range targetNames {
		for i := 0; i < labeledPer; i++ {
			g.sampleAnomaly(labeled.Row(row), name, r)
			labeledType[row] = ti
			row++
		}
	}

	// Unlabeled pool: (1−c) normals over the hidden groups, c
	// anomalies split between target and non-target types in the
	// profile's test-set ratio.
	nU := scaled(p.TrainUnlabeled, scale)
	nAnom := int(math.Round(contam * float64(nU)))
	ratioNT := float64(p.Test.NonTarget) / float64(p.Test.NonTarget+p.Test.Target)
	nNT := int(math.Round(float64(nAnom) * ratioNT))
	nT := nAnom - nNT
	nNorm := nU - nAnom

	trainNT := opt.TrainNonTargetTypes
	if trainNT == nil {
		for _, name := range g.typeOrder {
			if !g.targetSet[name] {
				trainNT = append(trainNT, name)
			}
		}
	}
	for _, name := range trainNT {
		if _, ok := g.ntIdx[name]; !ok {
			return nil, fmt.Errorf("synth: %q is not a non-target type of profile %s", name, p.Name)
		}
	}
	if len(trainNT) == 0 {
		return nil, fmt.Errorf("synth: no training non-target types for profile %s", p.Name)
	}

	unlabeled := mat.New(nU, p.Dim)
	kinds := make([]dataset.Kind, nU)
	row = 0
	for i := 0; i < nNorm; i++ {
		g.sampleNormal(unlabeled.Row(row), r.Intn(p.NormalGroups), r)
		kinds[row] = dataset.KindNormal
		row++
	}
	for i := 0; i < nT; i++ {
		g.sampleAnomaly(unlabeled.Row(row), targetNames[r.Intn(m)], r)
		kinds[row] = dataset.KindTarget
		row++
	}
	for i := 0; i < nNT; i++ {
		g.sampleAnomaly(unlabeled.Row(row), trainNT[r.Intn(len(trainNT))], r)
		kinds[row] = dataset.KindNonTarget
		row++
	}
	shuffleTogether(r, unlabeled, kinds)

	train := &dataset.TrainSet{
		Labeled:        labeled,
		LabeledType:    labeledType,
		NumTargetTypes: m,
		Unlabeled:      unlabeled,
		UnlabeledKind:  kinds,
	}

	// --- Evaluation splits ----------------------------------------------
	// Evaluation always uses ALL of the profile's non-target types, so
	// withholding types from training (Fig. 4a) creates novel
	// anomalies at test time.
	allNT := make([]string, 0, len(g.ntIdx))
	for _, name := range g.typeOrder {
		if !g.targetSet[name] {
			allNT = append(allNT, name)
		}
	}
	val := g.evalSplit(p.Val, scale, targetNames, allNT, r)
	test := g.evalSplit(p.Test, scale, targetNames, allNT, r)

	b := &dataset.Bundle{Name: p.Name, Train: train, Val: val, Test: test}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid bundle: %w", err)
	}
	return b, nil
}

func (g *generator) evalSplit(c Comp, scale float64, targets, nonTargets []string, r *rng.RNG) *dataset.EvalSet {
	nN := scaled(c.Normal, scale)
	nT := scaled(c.Target, scale)
	nNT := scaled(c.NonTarget, scale)
	x := mat.New(nN+nT+nNT, g.p.Dim)
	kind := make([]dataset.Kind, x.Rows)
	typ := make([]int, x.Rows)
	row := 0
	for i := 0; i < nN; i++ {
		gi := r.Intn(g.p.NormalGroups)
		if g.p.EvalNormalContam > 0 && r.Bernoulli(g.p.EvalNormalContam) {
			// Hidden anomaly counted as normal (SQB protocol).
			name := g.typeOrder[r.Intn(len(g.typeOrder))]
			g.sampleAnomaly(x.Row(row), name, r)
		} else {
			g.sampleNormal(x.Row(row), gi, r)
		}
		kind[row] = dataset.KindNormal
		typ[row] = gi
		row++
	}
	for i := 0; i < nT; i++ {
		ti := r.Intn(len(targets))
		g.sampleAnomaly(x.Row(row), targets[ti], r)
		kind[row] = dataset.KindTarget
		typ[row] = ti
		row++
	}
	for i := 0; i < nNT; i++ {
		ni := r.Intn(len(nonTargets))
		g.sampleAnomaly(x.Row(row), nonTargets[ni], r)
		kind[row] = dataset.KindNonTarget
		typ[row] = g.ntIdx[nonTargets[ni]]
		row++
	}
	shuffleEval(r, x, kind, typ)
	return &dataset.EvalSet{X: x, Kind: kind, Type: typ}
}

func shuffleTogether(r *rng.RNG, x *mat.Matrix, kinds []dataset.Kind) {
	r.Shuffle(x.Rows, func(i, j int) {
		ri, rj := x.Row(i), x.Row(j)
		for d := range ri {
			ri[d], rj[d] = rj[d], ri[d]
		}
		kinds[i], kinds[j] = kinds[j], kinds[i]
	})
}

func shuffleEval(r *rng.RNG, x *mat.Matrix, kind []dataset.Kind, typ []int) {
	r.Shuffle(x.Rows, func(i, j int) {
		ri, rj := x.Row(i), x.Row(j)
		for d := range ri {
			ri[d], rj[d] = rj[d], ri[d]
		}
		kind[i], kind[j] = kind[j], kind[i]
		typ[i], typ[j] = typ[j], typ[i]
	})
}
