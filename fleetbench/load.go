package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Reply shapes: the union of the fields rdproxy and rdserver send.
type pairReply struct {
	S            int             `json:"s"`
	T            int             `json:"t"`
	Value        float64         `json:"value"`
	Converged    bool            `json:"converged"`
	Degraded     bool            `json:"degraded"`
	Landmark     int             `json:"landmark"`
	Replica      string          `json:"replica"`
	Cache        string          `json:"cache"`
	Failovers    int             `json:"failovers"`
	GraphVersion *uint64         `json:"graph_version"`
	ElapsedMS    float64         `json:"elapsed_ms"`
	Error        json.RawMessage `json:"error"`
}

type batchReply struct {
	GraphVersion *uint64     `json:"graph_version"`
	ElapsedMS    float64     `json:"elapsed_ms"`
	Results      []pairReply `json:"results"`
}

func (b *batchReply) elapsedMS() float64 {
	if b == nil {
		return 0
	}
	return b.ElapsedMS
}

// result is the outcome of one sent request. Times are offsets from the
// start of the window.
type result struct {
	id     int // unique within one call of closedLoop or sendAll
	req    *request
	sent   time.Duration // when the request went on the wire
	done   time.Duration // when its reply was read
	status int
	err    error
	pair   *pairReply
	batch  *batchReply
}

// ok reports a 200 reply without per-pair error envelopes.
func (r *result) ok() bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if r.batch != nil {
		for _, p := range r.batch.Results {
			if len(p.Error) > 0 && string(p.Error) != "null" && string(p.Error) != `""` {
				return false
			}
		}
	}
	return true
}

// batchPairs returns a batch reply's entries (nil for other replies).
func (r *result) batchPairs() []pairReply {
	if r.batch == nil {
		return nil
	}
	return r.batch.Results
}

// pairs is how many pairs the request asked for.
func (r *result) pairs() int {
	if r.req.kind == kindBatch {
		return len(r.req.batch)
	}
	return 1
}

// client sends requests to one base URL over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

// newClient returns a client of base (or of each request's own target)
// that keeps at most conns connections open.
func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// numConns is the generator's connection and thread budget: one per CPU.
func numConns() int { return runtime.NumCPU() }

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends rq and decodes its reply into res.
func (c *client) do(rq *request, res *result) {
	var hreq *http.Request
	var err error
	base := c.base
	if rq.target != "" {
		base = rq.target
	}
	switch rq.kind {
	case kindPair:
		hreq, err = http.NewRequest(http.MethodGet, base+"/v1/pair?s="+strconv.Itoa(rq.p.S)+"&t="+strconv.Itoa(rq.p.T), nil)
	case kindBatch:
		body, _ := json.Marshal(map[string][]pair{"pairs": rq.batch})
		hreq, err = http.NewRequest(http.MethodPost, base+"/v1/batch", bytes.NewReader(body))
	}
	if err != nil {
		res.err = err
		return
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		res.err = err
		return
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		res.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("%s %d: %.200s", rq.kind, resp.StatusCode, body)
		return
	}
	var target any
	switch rq.kind {
	case kindPair:
		res.pair = &pairReply{}
		target = res.pair
	case kindBatch:
		res.batch = &batchReply{}
		target = res.batch
	}
	if err := json.Unmarshal(body, target); err != nil {
		res.err = fmt.Errorf("%s reply: %w", rq.kind, err)
	}
}

// doneFunc observes one finished request with its wall-clock send and
// reply times; the traced run records spans with it.
type doneFunc func(i int, sent, done time.Time, r *result)

// sendAll sends reqs from conns workers, each sending its next request
// as soon as its previous reply arrives. onDone, if not nil, runs after
// each request.
func sendAll(c *client, reqs []request, conns int, onDone doneFunc) []result {
	res := make([]result, len(reqs))
	queue := make(chan int, len(reqs))
	for i := range reqs {
		queue <- i
	}
	close(queue)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				r.id, r.req = i, &reqs[i]
				sent := time.Now()
				c.do(r.req, r)
				end := time.Now()
				r.sent, r.done = sent.Sub(start), end.Sub(start)
				if onDone != nil {
					onDone(i, sent, end, r)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// closedLoop runs clients that each send their next request as soon as the
// previous reply arrives, until dur has passed. next(c) returns client c's
// next request; onDone, if not nil, runs after each request.
func closedLoop(c *client, clients int, dur time.Duration, next func(c int) request, onDone doneFunc) []result {
	var mu sync.Mutex
	var all []result
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mine []result
			for n := 0; time.Since(start) < dur; n++ {
				rq := next(k)
				r := result{id: n*clients + k, req: &rq}
				sent := time.Now()
				c.do(&rq, &r)
				end := time.Now()
				r.sent, r.done = sent.Sub(start), end.Sub(start)
				if onDone != nil {
					onDone(r.id, sent, end, &r)
				}
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	return all
}

// latencyMS is a request's latency from its send, in ms.
func latencyMS(r *result) float64 {
	return float64(r.done-r.sent) / float64(time.Millisecond)
}
