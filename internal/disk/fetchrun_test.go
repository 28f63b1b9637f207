package disk

import "testing"

func TestFetchRunTime(t *testing.T) {
	m := FujitsuM2351A
	// Exact-size batched fetch agrees with the uniform-size model when
	// the records really are uniform.
	if got, want := m.FetchRunTime(4, 4*128), m.FetchTime(4, 128); got != want {
		t.Errorf("FetchRunTime(4, 512) = %v, FetchTime(4, 128) = %v", got, want)
	}
	if m.FetchRunTime(0, 100) != 0 {
		t.Error("FetchRunTime with k=0 should be free")
	}
}
