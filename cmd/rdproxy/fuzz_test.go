package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"landmarkrd/internal/serve"
)

// FuzzProxyBatchBody posts arbitrary bytes as the /v1/batch body to a proxy
// over two stub replicas. The proxy caches results, so a batch that repeats
// one pair costs one replica round trip however long it is. Every input
// must get a JSON reply with a status in {200, 400, 413, 422}: never a 5xx
// and never a panic.
func FuzzProxyBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"pairs":[{"s":0,"t":100},{"s":5,"t":55}]}`,
		`{"pairs":[]}`,
		`{"pairs":[{"s":0,"t":100000}]}`,
		`{"pairs":[{"s":-1,"t":3}]}`,
		`{not json`,
		`{"pairs":` + strings.Repeat("[", 20000),
		`{"pairs":[` + strings.Repeat(`{"s":0,"t":1},`, 1<<17) + `{"s":0,"t":1}]}`,
	} {
		f.Add([]byte(body))
	}
	p, _ := newTestProxy(f, 2, func(c *proxyConfig) { c.cacheSize = 4096 })
	h := p.routes()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d (%s)", rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			return
		}
		var e serve.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("status %d without the error envelope: %s", rec.Code, rec.Body.Bytes())
		}
	})
}
