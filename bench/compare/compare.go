package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"targad/bench/stats"
)

// run is the part of one result file the comparator reads.
type run struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    bool             `json:"trace"`
	Metrics  map[string]value `json:"metrics"`
}

// value is one metric of a result file.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// loadRuns reads every result file in dir, keyed by workload and seed.
// Traced runs are keyed apart, as "<workload> (traced)", so they pair
// only with traced runs.
func loadRuns(dir string) (map[string]map[int64]*run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]*run{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" {
			continue
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		if out[key] == nil {
			out[key] = map[int64]*run{}
		}
		out[key][r.Seed] = &r
	}
	return out, nil
}

// bounds reads the end-to-end bounds of a BENCHMARK.json.
func bounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// row is the comparison of one metric on one workload over the seeds
// both sets ran.
type row struct {
	workload, metric, unit string
	base, head             [3]float64 // quartiles: q1, median, q3
	pairs, wins            int
	verdict                string
}

// judge compares paired values of one metric (base[i] and head[i] come
// from the same seed). higher says which direction is better; bound is
// the share of the base median by which the head may worsen, and a
// negative bound means the metric has none.
//
// improved: the head wins at least 9/10 of the pairs (ties count for
// neither) and the medians differ by more than the base's interquartile
// range. regressed: the head median is worse by more than the bound, or,
// without a bound, the base wins 9/10 of the pairs by the same margin.
// unresolved: a bound narrower than either side's spread, or no bound,
// unless every head run beats every base run. Otherwise unchanged.
func judge(base, head []float64, higher bool, bound float64) (verdict string, wins int) {
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	losses := 0
	for i := range base {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	bq1, bmed, bq3 := stats.Quartiles(base)
	_, hmed, _ := stats.Quartiles(head)
	gap := math.Abs(hmed - bmed)
	need := 0.9 * float64(len(base))
	if float64(wins) >= need && gap > bq3-bq1 && better(hmed, bmed) {
		return improved, wins
	}
	worse := hmed - bmed
	if higher {
		worse = -worse
	}
	if bound >= 0 && worse > bound*math.Abs(bmed) {
		return regressed, wins
	}
	if bound < 0 && float64(losses) >= need && gap > bq3-bq1 {
		return regressed, wins
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	if bound < 0 || stats.Spread(base) > bound || stats.Spread(head) > bound {
		if allBetter {
			return unchanged, wins
		}
		return unresolved, wins
	}
	return unchanged, wins
}

// compare pairs the runs of both sets by workload and seed and judges
// every metric both sides report. error_share has an absolute bound of
// zero: any rise in the failure share is a regression.
func compare(base, head map[string]map[int64]*run, bound map[string]float64) []row {
	var rows []row
	workloads := make([]string, 0, len(base))
	for w := range base {
		if head[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		var seeds []int64
		for s := range base[w] {
			if head[w][s] != nil {
				seeds = append(seeds, s)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		first := base[w][seeds[0]]
		names := make([]string, 0, len(first.Metrics))
		for n := range first.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var bv, hv []float64
			for _, s := range seeds {
				b, okb := base[w][s].Metrics[n]
				h, okh := head[w][s].Metrics[n]
				if okb && okh {
					bv, hv = append(bv, b.Value), append(hv, h.Value)
				}
			}
			if len(bv) == 0 {
				continue
			}
			m := first.Metrics[n]
			r := row{workload: w, metric: n, unit: m.Unit, pairs: len(bv)}
			r.base[0], r.base[1], r.base[2] = stats.Quartiles(bv)
			r.head[0], r.head[1], r.head[2] = stats.Quartiles(hv)
			b, ok := bound[n]
			if !ok {
				b = -1
			}
			r.verdict, r.wins = judge(bv, hv, m.Better == "higher", b)
			if n == "error_share" {
				r.verdict = unchanged
				if r.head[1] > r.base[1] {
					r.verdict = regressed
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}
