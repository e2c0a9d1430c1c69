package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// serveOp is one request of a serve workload, with a tenant-relative
// page range as the HTTP API takes it.
type serveOp struct {
	Write  bool
	Tenant int
	LPN    uint64
	Pages  int
}

// opStream generates one closed-loop connection's requests: tenants in
// proportion to their weight, pages zipf-skewed within the tenant's
// window with the tenant's skew, 1–4 pages, and the workload's read
// share. It depends only on (seed, conn), so the same seed replays the
// same requests on every entry point.
type opStream struct {
	rng       *rand.Rand
	tenants   []trace.TenantSpec
	zipf      []*rand.Zipf
	weightSum float64
	readRatio float64
}

// maxOpPages bounds a request's size.
const maxOpPages = 4

func newOpStream(seed int64, conn int, readRatio float64, tenants []trace.TenantSpec) *opStream {
	rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, fmt.Sprintf("perfbench-conn/%d", conn))))
	s := &opStream{rng: rng, tenants: tenants, readRatio: readRatio}
	for _, t := range tenants {
		s.weightSum += float64(t.Weight)
		s.zipf = append(s.zipf, rand.NewZipf(rng, t.ZipfS, 1, t.WorkingSet-1))
	}
	return s
}

func (s *opStream) next() serveOp {
	x := s.rng.Float64() * s.weightSum
	ti := len(s.tenants) - 1
	for i, t := range s.tenants {
		if x < float64(t.Weight) {
			ti = i
			break
		}
		x -= float64(t.Weight)
	}
	ws := s.tenants[ti].WorkingSet
	op := serveOp{
		Write:  s.rng.Float64() >= s.readRatio,
		Tenant: ti,
		LPN:    s.zipf[ti].Uint64(),
		Pages:  1 + s.rng.Intn(maxOpPages),
	}
	if uint64(op.Pages) > ws {
		op.Pages = int(ws)
	}
	if op.LPN+uint64(op.Pages) > ws {
		op.LPN = ws - uint64(op.Pages)
	}
	return op
}

// take returns the next n requests.
func (s *opStream) take(n int) []serveOp {
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// path renders op as the request URI of the serve API.
func (op serveOp) path(tenants []trace.TenantSpec) (method, uri string) {
	method, p := http.MethodGet, "/v1/read"
	if op.Write {
		method, p = http.MethodPost, "/v1/write"
	}
	return method, fmt.Sprintf("%s?tenant=%s&lpn=%d&pages=%d", p, url.QueryEscape(tenants[op.Tenant].Name), op.LPN, op.Pages)
}

// client is the benchmark's HTTP client: at most conns keep-alive
// connections, no retries of its own, and every dial counted so a run
// can prove its latencies exclude TCP set-up.
type client struct {
	http  *http.Client
	tr    *http.Transport
	dials atomic.Int64
}

func newClient(conns int) *client {
	c := &client{}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.http = &http.Client{Transport: c.tr, Timeout: 30 * time.Second}
	return c
}

// do sends one request and returns its status and drained body. A
// transport error returns status 0. The body is always read to the end
// and closed, so the connection goes back to the pool.
func (c *client) do(method, u string) (int, []byte, error) {
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }
