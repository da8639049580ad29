package main

import (
	"testing"
	"time"
)

func TestStealShare(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b cpuTicks
		want float64
	}{
		{"no steal", cpuTicks{100, 5}, cpuTicks{300, 5}, 0},
		{"a quarter stolen", cpuTicks{100, 5}, cpuTicks{300, 55}, 0.25},
		{"no busy time", cpuTicks{100, 5}, cpuTicks{100, 5}, 0},
		{"unreadable /proc/stat", cpuTicks{}, cpuTicks{}, 0},
		{"counter went back", cpuTicks{100, 50}, cpuTicks{300, 40}, 0},
	} {
		if got := stealShare(c.a, c.b); got != c.want {
			t.Errorf("%s: stealShare = %v, want %v", c.name, got, c.want)
		}
	}
	if got := unstolen(2*time.Second, 0.25); got != 1500*time.Millisecond {
		t.Errorf("unstolen(2s, 0.25) = %v, want 1.5s", got)
	}
}

// TestReadTicks reads the running machine's counters: busy time never
// goes back, and steal is part of it.
func TestReadTicks(t *testing.T) {
	a := readTicks()
	if a == (cpuTicks{}) {
		t.Skip("/proc/stat not readable here")
	}
	b := readTicks()
	if b.busy < a.busy || a.steal > a.busy {
		t.Errorf("readTicks: %+v then %+v", a, b)
	}
}
