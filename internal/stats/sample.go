package stats

// StridedInt32 returns a deterministic systematic sample of about k
// elements: every ceil(n/k)-th element of ids. It preserves order
// and requires no randomness, which makes sampled runs exactly
// reproducible. When k ≥ len(ids) a copy of ids is returned.
func StridedInt32(ids []int32, k int) []int32 {
	n := len(ids)
	if k <= 0 {
		return nil
	}
	if k >= n {
		out := make([]int32, n)
		copy(out, ids)
		return out
	}
	stride := (n + k - 1) / k
	out := make([]int32, 0, k)
	for i := 0; i < n; i += stride {
		out = append(out, ids[i])
	}
	return out
}
