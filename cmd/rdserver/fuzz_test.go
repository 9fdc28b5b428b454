package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	landmarkrd "landmarkrd"
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
		checkFuzzReply(t, path, rec)
	})
}

// checkFuzzReply fails unless rec is a JSON reply with a status in
// {200, 400, 413, 422}, and every non-200 carries the structured error
// envelope.
func checkFuzzReply(t *testing.T, path string, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
	default:
		t.Fatalf("POST %s: status %d (%s)", path, rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s: status %d with a non-JSON body %q", path, rec.Code, rec.Body.Bytes())
	}
	if rec.Code == http.StatusOK {
		return
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("POST %s: status %d without the error envelope: %s", path, rec.Code, rec.Body.Bytes())
	}
}
