package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestStealShare(t *testing.T) {
	s := time.Second
	tl := stealTimeline{{0, 0, 0}, {s, 10, 200}, {2 * s, 10, 400}, {3 * s, 70, 600}}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, s, 0.05},
		{s, 2 * s, 0},
		{2 * s, 3 * s, 0.3},
		{0, 3 * s, 70.0 / 600},
		{s / 2, 3 * s / 2, 10.0 / 400}, // widened to the samples around it
		{3 * s, 4 * s, 0},              // past the last sample
	} {
		if got := tl.share(c.from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("share(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := (stealTimeline{}).share(0, s); got != 0 {
		t.Errorf("share without samples = %v", got)
	}
}

func TestKeepLeastStolen(t *testing.T) {
	shares := []float64{0.3, 0.0, 0.1, 0.0, 0.2, 0.05}
	many := []int{5000, 5000, 5000, 5000, 5000, 5000}
	// A third of six slices is two: the two untouched ones.
	if got := keepLeastStolen(shares, many, 1.0/3, 99); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("kept %v, want [1 3]", got)
	}
	// Ties with the last kept slice are kept too.
	tied := []float64{0.1, 0.0, 0.1, 0.1, 0.2, 0.3}
	if got := keepLeastStolen(tied, many, 1.0/3, 99); !reflect.DeepEqual(got, []int{1, 0, 2, 3}) {
		t.Errorf("kept %v, want [1 0 2 3]", got)
	}
	// No steal anywhere (or no counters): every slice.
	if got := keepLeastStolen(make([]float64, 6), many, 1.0/3, 99); len(got) != 6 {
		t.Errorf("kept %v of six unstolen slices, want all", got)
	}
	// Too few samples for p99 in the two least-stolen slices: keep going.
	few := []int{400, 400, 400, 400, 400, 400}
	if got := keepLeastStolen(shares, few, 1.0/3, 99); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Errorf("kept %v, want [1 3 5] (1,200 samples allow p99)", got)
	}
	if got := keepLeastStolen(shares, []int{1, 1, 1, 1, 1, 1}, 1.0/3, 99); len(got) != 6 {
		t.Errorf("kept %v; with too few samples everywhere every slice is kept", got)
	}
}

func TestReadCPUStat(t *testing.T) {
	steal, total, ok := readCPUStat()
	if !ok {
		t.Skip("no /proc/stat here")
	}
	if total == 0 || steal > total {
		t.Errorf("steal %d of total %d ticks", steal, total)
	}
}

func TestStealMeterSamplesUntilStopped(t *testing.T) {
	if _, _, ok := readCPUStat(); !ok {
		t.Skip("no /proc/stat here")
	}
	tl := startStealMeter().stop()
	if len(tl) < 2 {
		t.Fatalf("%d samples, want one at start and one at stop", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].at < tl[i-1].at || tl[i].total < tl[i-1].total || tl[i].steal < tl[i-1].steal {
			t.Errorf("sample %d %+v goes back from %+v", i, tl[i], tl[i-1])
		}
	}
}
