package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: the
// direction and regression bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest parent/change run pairs a verdict rests on.
const minPairs = 10

// floors are absolute tolerances that widen a metric's bound: set-up
// times of a few milliseconds move by more than their bound's share
// with the host alone, and a set-up regression that matters (work moved
// into set-up) costs tens of milliseconds at least.
var floors = map[string]float64{"setup_s": 0.05}

// verdict is the judgement of one (workload, metric) pair.
type verdict struct {
	pairs        int
	wins         int
	parentMedian float64
	changeMedian float64
	parentQ1     float64
	parentQ3     float64
	changeQ1     float64
	changeQ3     float64
	outcome      string
}

// judge applies the measurement rule to one metric's runs: pair i is
// run i of each side. A change improved the metric when it wins at
// least nine tenths of the pairs (ties count for neither) and its median
// beats the parent's by more than the parent's interquartile range. It
// is unresolved when the parent's own spread exceeds the tolerance,
// unless every change run beats every parent run; it regressed when its
// median is worse than the parent's by more than the tolerance;
// otherwise it is unchanged. The tolerance is the bound's share of the
// parent's median, or floor when that is larger.
func judge(parent, change []float64, higherIsBetter bool, bound, floor float64) verdict {
	v := verdict{pairs: min(len(parent), len(change))}
	v.parentMedian, v.changeMedian = median(parent), median(change)
	v.parentQ1, v.parentQ3 = quartiles(parent)
	v.changeQ1, v.changeQ3 = quartiles(change)
	sign := -1.0
	if higherIsBetter {
		sign = 1
	}
	for i := 0; i < v.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			v.wins++
		}
	}
	if v.pairs < minPairs {
		v.outcome = fmt.Sprintf("insufficient: %d pairs, need %d", v.pairs, minPairs)
		return v
	}
	gain := sign * (v.changeMedian - v.parentMedian)
	iqr := v.parentQ3 - v.parentQ1
	tol := max(bound*math.Abs(v.parentMedian), floor)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) > 0
		}
	}
	switch {
	case 10*v.wins >= 9*v.pairs && gain > iqr:
		v.outcome = "improved"
	case iqr > tol && !allBetter:
		v.outcome = "unresolved"
	case -gain > tol:
		v.outcome = "regressed"
	default:
		v.outcome = "unchanged"
	}
	return v
}

// compareFiles judges every end-to-end metric of every workload two -out
// files share. A metric's bound is the one in the benchmark file, which
// must hold for every workload, or the workload's own tighter bound.
func compareFiles(parentPath, changePath, benchPath string, w io.Writer) error {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	var parent, change results
	if err := readJSON(parentPath, &parent); err != nil {
		return err
	}
	if err := readJSON(changePath, &change); err != nil {
		return err
	}
	if parent.Trace || change.Trace {
		return fmt.Errorf("-compare judges end-to-end runs; traced runs carry per-layer metrics without bounds")
	}
	for _, wl := range parent.Order {
		cm, ok := change.Workloads[wl]
		if !ok {
			continue
		}
		for _, m := range bench.EndToEnd {
			p, c := parent.Workloads[wl][m.Name], cm[m.Name]
			if len(p.Values) == 0 || len(c.Values) == 0 {
				continue
			}
			bound := m.Bound
			if b, ok := workloadBound(wl, m.Name); ok {
				bound = min(bound, b)
			}
			v := judge(p.Values, c.Values, m.Better == "higher", bound, floors[m.Name])
			fmt.Fprintf(w, "%s %s: %s (parent %v [%v, %v], change %v [%v, %v] %s; change won %d of %d pairs; bound %v)\n",
				wl, m.Name, v.outcome, v.parentMedian, v.parentQ1, v.parentQ3,
				v.changeMedian, v.changeQ1, v.changeQ3, m.Unit, v.wins, v.pairs, bound)
		}
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
