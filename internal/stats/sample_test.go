package stats

import "testing"

func TestStridedInt32(t *testing.T) {
	ids := make([]int32, 100)
	for i := range ids {
		ids[i] = int32(i)
	}
	sample := StridedInt32(ids, 10)
	if len(sample) != 10 {
		t.Fatalf("sample size = %d, want 10", len(sample))
	}
	for i := 1; i < len(sample); i++ {
		if sample[i] <= sample[i-1] {
			t.Fatalf("strided sample not increasing: %v", sample)
		}
	}
	if got := StridedInt32(ids, 200); len(got) != 100 {
		t.Fatalf("oversized request returned %d ids, want all 100", len(got))
	}
	if got := StridedInt32(ids, 0); got != nil {
		t.Fatalf("k=0 returned %v, want nil", got)
	}
}

func TestStridedInt32Deterministic(t *testing.T) {
	ids := make([]int32, 57)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	a := StridedInt32(ids, 7)
	b := StridedInt32(ids, 7)
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic sample")
		}
	}
}
