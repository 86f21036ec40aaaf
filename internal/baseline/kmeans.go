package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

// KMeansResult holds a clustering of the selected rows over float
// attributes.
type KMeansResult struct {
	// Assignment maps each position in the input selection to a
	// cluster index.
	Assignment []int
	// Centers are the final centroids, one per cluster.
	Centers [][]float64
	// Iterations actually performed.
	Iterations int
	// WithinSS is the total within-cluster sum of squares.
	WithinSS float64
}

// KMeans is Lloyd's algorithm with deterministic seeding over the
// given float-valued attributes. It is the homogeneity reference of
// Section 3: k-means optimizes intra-cluster distance directly but
// its clusters are not expressible as SDL queries, which is the
// trade-off Charles makes.
func KMeans(tab *engine.Table, sel engine.Selection, attrs []string, k, maxIter int, seed int64) (*KMeansResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: kmeans needs k >= 1")
	}
	if len(sel) < k {
		return nil, fmt.Errorf("baseline: kmeans with %d rows and k=%d", len(sel), k)
	}
	points, err := gatherPoints(tab, sel, attrs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// k-means++-style seeding: first center uniform, then farthest-
	// biased.
	centers := make([][]float64, 0, k)
	centers = append(centers, clonePoint(points[rng.Intn(len(points))]))
	for len(centers) < k {
		dists := make([]float64, len(points))
		total := 0.0
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centers {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			dists[i] = d
			total += d
		}
		if total == 0 {
			centers = append(centers, clonePoint(points[rng.Intn(len(points))]))
			continue
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range dists {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, clonePoint(points[idx]))
	}
	res := &KMeansResult{Assignment: make([]int, len(points)), Centers: centers}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, center := range centers {
				if d := sqDist(p, center); d < bestD {
					best, bestD = c, d
				}
			}
			if res.Assignment[i] != best {
				res.Assignment[i] = best
				changed = true
			}
		}
		res.Iterations = iter + 1
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, len(attrs))
		}
		for i, p := range points {
			c := res.Assignment[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue // keep the old center for empty clusters
			}
			for d := range centers[c] {
				centers[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	for i, p := range points {
		res.WithinSS += sqDist(p, centers[res.Assignment[i]])
	}
	return res, nil
}

func gatherPoints(tab *engine.Table, sel engine.Selection, attrs []string) ([][]float64, error) {
	cols := make([]engine.FloatValued, len(attrs))
	for i, attr := range attrs {
		col, ok := tab.ColumnByName(attr)
		if !ok {
			return nil, fmt.Errorf("baseline: no column %q", attr)
		}
		fc, ok := col.(engine.FloatValued)
		if !ok {
			return nil, fmt.Errorf("baseline: kmeans needs float columns, %q is %v", attr, col.Kind())
		}
		cols[i] = fc
	}
	points := make([][]float64, len(sel))
	for i, row := range sel {
		p := make([]float64, len(attrs))
		for d, col := range cols {
			p[d] = col.Float64(int(row))
		}
		points[i] = p
	}
	return points, nil
}

func clonePoint(p []float64) []float64 {
	out := make([]float64, len(p))
	copy(out, p)
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SegmentationHomogeneity is the homogeneity proxy used in the E9
// comparison: the count-weighted mean within-segment variance of
// each float attribute, normalized by the attribute's overall
// variance in the context, averaged over attrs. 1 means the segments
// are no tighter than the whole context; values toward 0 mean
// homogeneous segments. Section 3 "purposely neglect[s] to quantify
// homogeneity" online — this measures offline what the heuristic
// achieved anyway.
func SegmentationHomogeneity(ev *seg.Evaluator, context sdl.Query, s *seg.Segmentation, attrs []string) (float64, error) {
	ctxSel, err := ev.Select(context)
	if err != nil {
		return 0, err
	}
	if len(ctxSel) == 0 {
		return 0, fmt.Errorf("baseline: empty context")
	}
	ratioSum, used := 0.0, 0
	for _, attr := range attrs {
		col, ok := ev.Table().ColumnByName(attr)
		if !ok {
			return 0, fmt.Errorf("baseline: no column %q", attr)
		}
		fc, ok := col.(engine.FloatValued)
		if !ok {
			continue // homogeneity proxy only over numeric attrs
		}
		_, overall, _ := floatMeanVar(fc, ctxSel)
		if overall == 0 {
			continue
		}
		within, total := 0.0, 0
		for i, q := range s.Queries {
			segSel, err := ev.Select(q)
			if err != nil {
				return 0, err
			}
			_, v, ok := floatMeanVar(fc, segSel)
			if !ok {
				continue
			}
			within += v * float64(s.Counts[i])
			total += s.Counts[i]
		}
		if total == 0 {
			continue
		}
		ratioSum += (within / float64(total)) / overall
		used++
	}
	if used == 0 {
		return 0, fmt.Errorf("baseline: no usable float attribute among %v", attrs)
	}
	return ratioSum / float64(used), nil
}

// floatMeanVar returns the mean and population variance of col over
// sel. ok is false when the selection is empty.
func floatMeanVar(col engine.FloatValued, sel engine.Selection) (mean, variance float64, ok bool) {
	if len(sel) == 0 {
		return 0, 0, false
	}
	vals := col.Float64s()
	for _, row := range sel {
		mean += vals[row]
	}
	mean /= float64(len(sel))
	for _, row := range sel {
		d := vals[row] - mean
		variance += d * d
	}
	variance /= float64(len(sel))
	return mean, variance, true
}
