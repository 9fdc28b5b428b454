package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	landmarkrd "landmarkrd"
	"landmarkrd/internal/serve"
)

// FuzzServerBatchBody posts arbitrary bytes as the body of /v1/batch
// (update false) or /v1/update (update true) to a fresh replica over the
// corpus grid, so no input sees the graph another one updated. The
// replica is index-free and its body cap is 8 KiB rather than the
// 1 MiB default, so that each input (a valid batch is at most a few
// hundred pairs) is answered in about a millisecond and the engine can
// minimize what it finds; the decoding and cap code is the same. Every
// input must get a JSON reply with a status in {200, 400, 413, 422}: never
// a 5xx (the recoverer turns a handler panic into a 500) and never a
// bare-text error.
func FuzzServerBatchBody(f *testing.F) {
	big := `{"pairs":[` + strings.Repeat(`{"s":0,"t":1},`, 1<<17) + `{"s":0,"t":1}]}`
	deep := `{"pairs":` + strings.Repeat("[", 20000)
	for _, body := range []string{
		`{"pairs":[{"s":0,"t":100},{"s":5,"t":55}]}`,
		`{"pairs":[]}`,
		`{"pairs":[{"s":0,"t":100000}]}`,
		`{"pairs":[{"s":-1,"t":3}]}`,
		`{not json`, deep, big,
	} {
		f.Add(false, []byte(body))
	}
	for _, body := range []string{
		`{"op":"add","s":0,"t":37,"weight":0.5}`,
		`{"op":"remove","s":0,"t":1}`,
		`{"op":"remove","s":0,"t":150}`,
		`{"op":"add","s":0,"t":100000}`,
		`{"op":"add","s":-1,"t":3,"weight":2}`,
		`{"op":"add","s":3,"t":4,"weight":1e308}`,
		`{not json`, deep, big,
	} {
		f.Add(true, []byte(body))
	}
	g := loadTestGraph(f)
	f.Fuzz(func(t *testing.T, update bool, body []byte) {
		srv, err := newQueryServer(g, serverConfig{
			method: landmarkrd.BiPush, seed: 7, maxPatches: -1, maxBody: 8 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := "/v1/batch"
		if update {
			path = "/v1/update"
		}
		rec := httptest.NewRecorder()
		srv.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		checkFuzzReply(t, "POST "+path, rec, http.StatusRequestEntityTooLarge)
	})
}

// FuzzServerQuery sends arbitrary raw query strings to GET /v1/pair
// (singleSource false) or GET /v1/singlesource (true) on an exact K=1
// indexed replica over the corpus grid. Every input must get a JSON reply
// with a status in {200, 400, 422}. rdproxy's /v1/pair parses its query
// with the same serve.PairParams, so this target covers both tiers.
func FuzzServerQuery(f *testing.F) {
	for _, raw := range []string{
		"s=0&t=100", "t=5", "s=5", "", "s=-1&t=3", "s=0&t=100000", "s=+5&t=7",
		"s=99999999999999999999&t=1", "s=1&s=2&t=3&t=4", "s=%31%30&t=%32", "s=%zz&t=1",
		"s=1;t=2", "s= 1&t=2", "s=0x10&t=1", "s=1&t=2&s=",
	} {
		f.Add(false, raw)
		f.Add(true, raw)
	}
	srv, err := newQueryServer(loadTestGraph(f), serverConfig{
		method: landmarkrd.BiPush, seed: 7, indexMode: "exact", timeout: 30 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.routes()
	f.Fuzz(func(t *testing.T, singleSource bool, raw string) {
		path := "/v1/pair"
		if singleSource {
			path = "/v1/singlesource"
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkFuzzReply(t, "GET "+path+"?"+raw, rec)
	})
}

// checkFuzzReply fails unless rec is a JSON reply whose status is 200,
// 400, 422 or one of the extra statuses in also, and every non-200 carries
// the structured error envelope.
func checkFuzzReply(t *testing.T, req string, rec *httptest.ResponseRecorder, also ...int) {
	t.Helper()
	switch {
	case rec.Code == http.StatusOK, rec.Code == http.StatusBadRequest, rec.Code == http.StatusUnprocessableEntity:
	case slices.Contains(also, rec.Code):
	default:
		t.Fatalf("%s: status %d (%s)", req, rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s: status %d with a non-JSON body %q", req, rec.Code, rec.Body.Bytes())
	}
	if rec.Code == http.StatusOK {
		return
	}
	var e serve.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("%s: status %d without the error envelope: %s", req, rec.Code, rec.Body.Bytes())
	}
}
