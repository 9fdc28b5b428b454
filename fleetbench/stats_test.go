package main

import (
	"encoding/json"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means refused
	}{
		{1000, 99, 990},
		{999, 99, 0}, // p99 needs 1,000 samples
		{100, 90, 90},
		{99, 90, 0},
		{20, 50, 10},
		{19, 50, 0},
		{0, 50, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for n, want := range map[int]float64{10000: 99.9, 9999: 99, 1000: 99, 999: 90, 100: 90, 99: 75, 40: 75, 39: 50, 20: 50, 19: 0} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
		if p := highestPercentile(n); p > 0 {
			if _, err := percentile(seq(n), p); err != nil {
				t.Errorf("highestPercentile(%d) = %v is refused by percentile: %v", n, p, err)
			}
		}
	}
}

func TestVarsDeltaAndRatios(t *testing.T) {
	page := func(hits, misses, shared, queries float64) map[string]json.RawMessage {
		raw := map[string]json.RawMessage{}
		b, _ := json.Marshal(map[string]any{
			"cache_hits": hits, "cache_misses": misses, "cache_shared": shared,
			"shard_routed": queries, "shard_failovers": 0,
			"query_time_ns": map[string]any{"count": queries, "sum": 10 * queries, "p50": 8},
		})
		raw["landmarkrd.proxy"] = b
		raw["landmarkrd.epoch"] = json.RawMessage("3")
		raw["memstats"] = json.RawMessage(`{"Alloc": 5}`)
		return raw
	}
	before := flattenVars(page(10, 5, 1, 16))
	after := flattenVars(page(70, 25, 5, 100))
	if _, ok := before["epoch"]; ok {
		t.Error("scalar vars must not become counters")
	}
	if _, ok := before["memstats.Alloc"]; ok {
		t.Error("non-landmarkrd vars must be skipped")
	}
	d := delta(before, after)
	if d["proxy.cache_hits"] != 60 || d["proxy.query_time_ns.count"] != 84 || d["proxy.query_time_ns.sum"] != 840 {
		t.Fatalf("delta = %v", d)
	}
	if got := cacheHitRatio(d); math.Abs(got-60.0/(60+20+4)) > 1e-12 {
		t.Errorf("cacheHitRatio = %v", got)
	}
	if got := ratio(d["proxy.shard_failovers"], d["proxy.shard_routed"]); got != 0 {
		t.Errorf("failover ratio = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio with a zero base = %v, want 0", got)
	}
	if got := sum(counters{"a": 1}, counters{"a": 2, "b": 3}); got["a"] != 3 || got["b"] != 3 {
		t.Errorf("sum = %v", got)
	}
	if got := delta(counters{}, counters{"x": 4}); got["x"] != 4 {
		t.Errorf("a counter new in after counts from zero: %v", got)
	}
}

func TestSelfTimeFromSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) int64 { return int64(ms) * 1e6 }
	tr.spans = []span{
		{Name: "rdproxy", ID: 1, Start: at(0), End: at(10)},
		{Name: "rdserver", ID: 1, Parent: "rdproxy", Start: at(2), End: at(8)},
		// a batch split over two replicas: the children's cover is 3..9
		{Name: "rdproxy", ID: 2, Start: at(0), End: at(12)},
		{Name: "rdserver", ID: 2, Parent: "rdproxy", Start: at(3), End: at(7)},
		{Name: "rdserver", ID: 2, Parent: "rdproxy", Start: at(4), End: at(9)},
		// no child: not reported
		{Name: "rdproxy", ID: 3, Start: at(0), End: at(5)},
	}
	got := tr.selfMS("rdproxy")
	if len(got) != 2 {
		t.Fatalf("selfMS = %v, want two requests", got)
	}
	want := map[float64]bool{4: true, 6: true}
	for _, v := range got {
		if !want[v] {
			t.Errorf("self time %v not in %v", v, want)
		}
	}
	if d := tr.durMS("rdserver"); len(d) != 3 || d[0] != 6 {
		t.Errorf("durMS = %v", d)
	}
}
