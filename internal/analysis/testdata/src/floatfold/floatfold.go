// Package floatfold exercises the floatfold analyzer: floating-point
// accumulation must fold in a deterministic rank order — never in
// map-range order, never descending over all-gathered contributions.
package floatfold

import "repro/internal/pcomm"

func badMap(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v // want `floating-point accumulation in map-range order`
	}
	return s
}

func badMapAssignForm(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s = s + v // want `floating-point accumulation in map-range order`
	}
	return s
}

func badDescGather(c pcomm.Comm, x float64) float64 {
	parts := pcomm.AllGatherSlice(c, []float64{x})
	s := 0.0
	for i := len(parts) - 1; i >= 0; i-- {
		s += parts[i][0] // want `manual fold over AllGather contributions in descending order`
	}
	return s
}

// Integer accumulation is associative: map-range order is harmless.
func goodIntMap(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Ascending folds over gathered contributions are rank order: fine.
func goodAscendGather(c pcomm.Comm, x float64) float64 {
	parts := pcomm.AllGatherSlice(c, []float64{x})
	s := 0.0
	for i := 0; i < len(parts); i++ {
		s += parts[i][0]
	}
	for _, p := range parts {
		s += p[0]
	}
	return s
}

// Folding map values through a sorted key slice is the fix for badMap.
func goodSortedKeys(m map[int]float64, keys []int) float64 {
	s := 0.0
	for _, k := range keys {
		s += m[k]
	}
	return s
}

// Waived: this particular fold is exact (no rounding), but the analyzer
// cannot know that; the annotation records the reasoning.
func waived(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v //pilutlint:ok floatfold values are exact powers of two, the fold never rounds
	}
	return s
}
