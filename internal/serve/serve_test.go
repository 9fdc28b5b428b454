package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"landmarkrd/internal/obs"
)

// TestProtocolTable drives one mux built from the kit through every
// protocol rule it owns and checks status, code, Allow and Retry-After.
func TestProtocolTable(t *testing.T) {
	var panics obs.Counter
	var logs bytes.Buffer
	k := New("server", log.New(&logs, "", 0), &panics, 1, time.Second, 1)
	ready := true
	mux := k.NewMux(func() (string, string) {
		if !ready {
			return "not_ready", "loading"
		}
		return "", ""
	})
	k.Route(mux, http.MethodGet, "/pair", k.Admit(func(w http.ResponseWriter, r *http.Request) {
		s, t, err := PairParams(r, 10)
		if err != nil {
			k.WriteRequestError(w, err)
			return
		}
		k.WriteJSON(w, map[string]int{"s": s, "t": t})
	}))
	k.Route(mux, http.MethodPost, "/batch", k.Admit(func(w http.ResponseWriter, r *http.Request) {
		if pairs, ok := k.DecodePairs(w, r, 64, 10); ok {
			k.WriteJSON(w, pairs)
		}
	}))
	k.Route(mux, http.MethodGet, "/panic", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	h := k.Recover(mux)

	cases := []struct {
		name, method, path, body string
		status                   int
		code, allow              string
		saturate, notReady       bool
	}{
		{name: "pair", method: "GET", path: "/pair?s=1&t=2", status: 200},
		{name: "head", method: "HEAD", path: "/pair?s=1&t=2", status: 200},
		{name: "healthz", method: "GET", path: "/healthz", status: 200},
		{name: "readyz", method: "GET", path: "/readyz", status: 200},
		{name: "not ready", method: "GET", path: "/readyz", status: 503, code: "not_ready", notReady: true},
		{name: "405 get", method: "POST", path: "/pair", status: 405, code: "method_not_allowed", allow: "GET, HEAD"},
		{name: "405 post", method: "GET", path: "/batch", status: 405, code: "method_not_allowed", allow: "POST"},
		{name: "405 probe", method: "DELETE", path: "/healthz", status: 405, code: "method_not_allowed", allow: "GET, HEAD"},
		{name: "405 expvar", method: "POST", path: "/debug/vars", status: 405, code: "method_not_allowed", allow: "GET, HEAD"},
		{name: "missing t", method: "GET", path: "/pair?s=1", status: 400, code: "bad_request"},
		{name: "not an int", method: "GET", path: "/pair?s=x&t=2", status: 400, code: "bad_request"},
		{name: "overflow", method: "GET", path: "/pair?s=99999999999999999999&t=2", status: 400, code: "bad_request"},
		{name: "out of range", method: "GET", path: "/pair?s=1&t=10", status: 422, code: "vertex_out_of_range"},
		{name: "negative", method: "GET", path: "/pair?s=-1&t=2", status: 422, code: "vertex_out_of_range"},
		{name: "batch", method: "POST", path: "/batch", body: `{"pairs":[{"s":1,"t":2}]}`, status: 200},
		{name: "bad JSON", method: "POST", path: "/batch", body: `{not json`, status: 400, code: "bad_request"},
		{name: "empty batch", method: "POST", path: "/batch", body: `{"pairs":[]}`, status: 400, code: "bad_request"},
		{name: "batch vertex", method: "POST", path: "/batch", body: `{"pairs":[{"s":1,"t":99}]}`, status: 422, code: "vertex_out_of_range"},
		{name: "too large", method: "POST", path: "/batch", body: `{"pairs":[` + strings.Repeat(`{"s":1,"t":2},`, 10) + `{"s":1,"t":2}]}`, status: 413, code: "body_too_large"},
		{name: "saturated", method: "GET", path: "/pair?s=1&t=2", status: 429, code: "saturated", saturate: true},
		{name: "panic", method: "GET", path: "/panic", status: 500, code: "internal"},
	}
	for _, tc := range cases {
		ready = !tc.notReady
		if tc.saturate && !k.TryAcquire() {
			t.Fatalf("%s: admission slot already taken", tc.name)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if tc.saturate {
			k.Release()
		}
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body.Bytes())
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow %q, want %q", tc.name, got, tc.allow)
		}
		ra := rec.Header().Get("Retry-After")
		if n, err := strconv.Atoi(ra); tc.status == 429 && (err != nil || n < RetryAfterMin || n > RetryAfterMax) {
			t.Errorf("%s: Retry-After %q, want an int in [%d, %d]", tc.name, ra, RetryAfterMin, RetryAfterMax)
		} else if tc.status != 429 && ra != "" {
			t.Errorf("%s: unexpected Retry-After %q", tc.name, ra)
		}
		if tc.code == "" {
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var body ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != tc.code || body.Error.Message == "" {
			t.Errorf("%s: envelope %s (%v), want code %q with a message", tc.name, rec.Body.Bytes(), err, tc.code)
		}
	}
	if n := panics.Load(); n != 1 {
		t.Errorf("recoverer counted %d panics, want 1", n)
	}
	if logs.Len() != 0 {
		t.Errorf("unexpected log output %q", logs.String())
	}
}

// TestRetryAfterJitter: every hint lies in the band, and the band is used.
func TestRetryAfterJitter(t *testing.T) {
	k := New("server", log.New(&bytes.Buffer{}, "", 0), &obs.Counter{}, 1, 0, 1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		n := k.RetryAfter()
		if n < RetryAfterMin || n > RetryAfterMax {
			t.Fatalf("Retry-After %d outside [%d, %d]", n, RetryAfterMin, RetryAfterMax)
		}
		seen[n] = true
	}
	if len(seen) != RetryAfterMax-RetryAfterMin+1 {
		t.Errorf("200 draws hit only %v of the band", seen)
	}
}

// failingWriter is a ResponseWriter whose body writes always fail.
type failingWriter struct {
	header http.Header
	status int
}

func (f *failingWriter) Header() http.Header { return f.header }
func (f *failingWriter) WriteHeader(s int)   { f.status = s }
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("wire torn")
}

// TestWriteJSONLogsEncodeFailure: a reply that cannot be written, or a
// value that cannot be encoded, reaches the logger instead of vanishing.
func TestWriteJSONLogsEncodeFailure(t *testing.T) {
	var buf bytes.Buffer
	k := New("server", log.New(&buf, "", 0), &obs.Counter{}, 1, 0, 1)
	k.WriteJSON(&failingWriter{header: make(http.Header)}, map[string]int{"s": 1})
	if !strings.Contains(buf.String(), "wire torn") {
		t.Errorf("write failure not logged; log output: %q", buf.String())
	}
	buf.Reset()
	k.WriteJSON(httptest.NewRecorder(), map[string]float64{"value": math.NaN()})
	if !strings.Contains(buf.String(), "NaN") {
		t.Errorf("encode failure not logged; log output: %q", buf.String())
	}
}
