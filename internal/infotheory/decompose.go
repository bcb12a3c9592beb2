package infotheory

import "slices"

// Estimator evaluates a multi-information estimate in bits on a dataset.
// The stock choices are closures over MultiInfoKSG, MultiInfoKernel and
// MultiInfoBinned; Decompose applies the same estimator to every term so
// the decomposition is internally consistent.
type Estimator func(*Dataset) float64

// KSGEstimator returns the recommended KSG estimator (algorithm 2, the
// bias-corrected form of the paper's Eq. 18) with the given k.
func KSGEstimator(k int) Estimator {
	return func(d *Dataset) float64 { return MultiInfoKSGVariant(d, k, KSG2) }
}

// KSGVariantEstimator returns a specific KSG formulation as an Estimator.
func KSGVariantEstimator(k int, v KSGVariant) Estimator {
	return func(d *Dataset) float64 { return MultiInfoKSGVariant(d, k, v) }
}

// Decomposition is the split of total multi-information over a partition of
// the observer variables into coarse-grained groups (Eq. 5):
//
//	I(X₁,…,X_n) = I(X̃₁,…,X̃_k) + Σ_g I(members of group g)
//
// Between is the first term (organisation only explainable as interaction
// between coarse observers — in the paper's Fig. 11, between particle
// types); Within[g] are the per-group terms. The identity is exact for
// plug-in estimates on discrete data and holds approximately for the
// continuous estimators.
type Decomposition struct {
	Between float64
	Within  []float64
}

// Total returns Between + Σ Within, the reconstructed total
// multi-information.
func (d Decomposition) Total() float64 {
	t := d.Between
	for _, w := range d.Within {
		t += w
	}
	return t
}

// Normalized returns the decomposition scaled so that Total() == 1
// (the presentation of Fig. 11). A zero total returns the decomposition
// unchanged.
func (d Decomposition) Normalized() Decomposition {
	t := d.Total()
	if t == 0 {
		return d
	}
	out := Decomposition{Between: d.Between / t, Within: make([]float64, len(d.Within))}
	for g, w := range d.Within {
		out.Within[g] = w / t
	}
	return out
}

// Decompose evaluates the decomposition of the dataset's multi-information
// over the given variable groups with the given estimator. Groups with a
// single member have zero within-group multi-information by definition.
func Decompose(d *Dataset, groups [][]int, est Estimator) Decomposition {
	out := Decomposition{Within: make([]float64, len(groups))}
	out.Between = est(d.Grouped(groups))
	for g, members := range groups {
		if len(members) < 2 {
			continue
		}
		out.Within[g] = est(d.Select(members))
	}
	return out
}

// GroupsByLabel partitions variable indices 0..len(labels)-1 by their
// label value (e.g. particle type), returning one group per distinct label
// in increasing label order. It is the standard grouping for the per-type
// decomposition of Sec. 6.1.1. Memory scales with the number of
// variables, not with the largest label.
func GroupsByLabel(labels []int) [][]int {
	if len(labels) == 0 {
		return nil
	}
	distinct := slices.Compact(slices.Sorted(slices.Values(labels)))
	out := make([][]int, len(distinct))
	for v, t := range labels {
		g, _ := slices.BinarySearch(distinct, t)
		out[g] = append(out[g], v)
	}
	return out
}
