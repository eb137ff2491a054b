package main

import "testing"

// TestWindowedP99 checks that a slow stretch confined to one window leaves
// slice_ms_p99 alone, while a tail present in every window shows.
func TestWindowedP99(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = 10
	}
	for i := 300; i < 400; i++ {
		ms[i] = 50
	}
	if got := windowedP99(ms); got != 10 {
		t.Errorf("one slow window: windowedP99 = %v, want 10", got)
	}
	for i := 0; i < len(ms); i += 50 {
		ms[i] = 30
	}
	if got := windowedP99(ms); got != 30 {
		t.Errorf("tail in every window: windowedP99 = %v, want 30", got)
	}
}
