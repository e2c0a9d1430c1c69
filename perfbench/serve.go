package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/ftl"
	"flexlevel/internal/server"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// serveWorkload is one traffic mix against the in-process block service.
type serveWorkload struct {
	readRatio float64
	// journal turns on AutoRestart, which runs the crash-consistency
	// journal on every shard (no crash is injected).
	journal bool
}

// serveRead is the read path; serveWrite is the 30/70 mix with the
// journal on, which exercises the layers only writes reach: FTL garbage
// collection, the journal and admission shedding.
var (
	serveRead  = serveWorkload{readRatio: 0.8}
	serveWrite = serveWorkload{readRatio: 0.3, journal: true}
)

const (
	servePE     = 6000
	serveSimGap = 2 * time.Millisecond
	serveSLO    = 50 * time.Millisecond
	serveQD     = 8
	// Each shard refreshes its /metrics telemetry every serveMetricsEvery
	// ops, sorting its read reservoir of at most serveSampleCap samples
	// on the engine goroutine. At the server's defaults (256 and 65,536)
	// that stall holds up about 0.5% of requests and grows as the
	// reservoir fills, so the p99 sat on the edge between the stall and
	// host scheduling noise and moved by a third from run to run. At 64
	// and 16,384 the read reservoir fills early in a pass and one request
	// in 64 waits on a sort of that size, so the p99 measures the stall.
	serveMetricsEvery = 64
	serveSampleCap    = 16384
	// serveConns is the number of keep-alive connections of the closed
	// loop. With two on a 2-vCPU host, a request could also wait for the
	// other connection's refresh stall or for the CPU it was using, and
	// the p99 of a pass more than doubled with the host's load; with one,
	// the passes of a run agree within a few percent.
	serveConns    = 1
	warmupPerConn = 2000
	// passOps is the request count of one timed pass, split over the
	// connections; wall_s is the median time a pass takes.
	passOps = 60000
	// peelPerConn is each connection's share of the peel's op list.
	peelPerConn = 20000
)

func (w serveWorkload) config(seed int64) server.Config {
	return server.Config{
		System:       core.FlexLevel,
		PE:           servePE,
		Seed:         seed,
		Shards:       runtime.NumCPU(),
		QueueDepth:   serveQD,
		SimGap:       serveSimGap,
		SLOWait:      serveSLO,
		AutoRestart:  w.journal,
		SampleCap:    serveSampleCap,
		MetricsEvery: serveMetricsEvery,
	}
}

// tenantsOf returns the tenant specs a server built from cfg uses.
func tenantsOf(cfg server.Config) []trace.TenantSpec {
	return trace.DefaultTenants(core.DefaultOptions(cfg.System, cfg.PE).SSD.FTL.LogicalPages)
}

// liveServer is a block service listening on a loopback port.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and connections, drains the service and
// waits for the serving goroutine to return.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := l.hs.Shutdown(ctx)
	serr := l.srv.Shutdown(ctx)
	if err := <-l.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(herr, serr)
}

// connResult is what one closed-loop connection saw.
type connResult struct {
	out      outcomes
	wall     histogram // client-observed wall latency of each 200
	sim      histogram // latency_us of each 200 body
	acks     map[int]*ackSet
	firstErr string
}

// settle classifies one response and checks its body.
func (r *connResult) settle(op serveOp, tenants []trace.TenantSpec, status int, body []byte, err error, wall time.Duration) {
	bad := func(format string, args ...any) {
		r.out.Errors++
		if r.firstErr == "" {
			r.firstErr = fmt.Sprintf(format, args...)
		}
	}
	if err != nil {
		bad("transport: %v", err)
		return
	}
	switch status {
	case http.StatusOK:
		var resp server.WriteResponse // a read body is the same minus seq
		if err := json.Unmarshal(body, &resp); err != nil {
			bad("200 body does not parse: %v", err)
			return
		}
		if resp.Tenant != tenants[op.Tenant].Name || resp.LPN != op.LPN || resp.Pages != op.Pages {
			bad("200 body %+v does not match request %+v", resp, op)
			return
		}
		if op.Write {
			if resp.Seq == 0 {
				bad("write ack without a sequence")
				return
			}
			if r.acks == nil {
				r.acks = map[int]*ackSet{}
			}
			if r.acks[op.Tenant] == nil {
				r.acks[op.Tenant] = &ackSet{}
			}
			r.acks[op.Tenant].add(resp.Seq)
		}
		r.out.OK++
		r.wall.record(wall)
		r.sim.record(time.Duration(resp.LatencyUS * float64(time.Microsecond)))
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		var e server.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			bad("%d body does not parse: %v", status, err)
			return
		}
		switch {
		case status == http.StatusTooManyRequests && (e.Code == server.CodeShed || e.Code == server.CodeQueueFull):
			r.out.Refused++
		case status == http.StatusGatewayTimeout && e.Code == server.CodeDeadline:
			r.out.Deadline++
		case status == http.StatusServiceUnavailable &&
			(e.Code == server.CodeReadOnly || e.Code == server.CodePowerLoss || e.Code == server.CodeDraining):
			r.out.Retryable++
		default:
			bad("status %d with code %q", status, e.Code)
		}
	default:
		bad("status %d: %s", status, body)
	}
}

// loopStats is the outcome of one closed loop over all connections.
type loopStats struct {
	conns []*connResult
	wall  time.Duration
}

func (s loopStats) outcomes() outcomes {
	var o outcomes
	for _, c := range s.conns {
		o.add(c.out)
	}
	return o
}

// pooled merges one histogram of every connection.
func (s loopStats) pooled(f func(*connResult) *histogram) *histogram {
	h := &histogram{}
	for _, c := range s.conns {
		h.merge(f(c))
	}
	return h
}

// closedLoop sends each list on its own connection: the next request
// goes out only after the previous response has been read.
func closedLoop(c *client, base string, tenants []trace.TenantSpec, lists [][]serveOp) loopStats {
	st := loopStats{conns: make([]*connResult, len(lists))}
	start := time.Now()
	var wg sync.WaitGroup
	for i, ops := range lists {
		res := &connResult{}
		st.conns[i] = res
		wg.Add(1)
		go func(ops []serveOp) {
			defer wg.Done()
			for _, op := range ops {
				method, uri := op.path(tenants)
				t0 := time.Now()
				status, body, err := c.do(method, base+uri)
				res.settle(op, tenants, status, body, err, time.Since(t0))
			}
		}(ops)
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// opLists returns each connection's first n requests, starting at
// connection index first.
func opLists(seed int64, first, conns, n int, readRatio float64, tenants []trace.TenantSpec) [][]serveOp {
	lists := make([][]serveOp, conns)
	for i := range lists {
		lists[i] = newOpStream(seed, first+i, readRatio, tenants).take(n)
	}
	return lists
}

// Connection indices of the op streams: warm-up, timed passes and the
// peel draw from disjoint streams of the same seed.
const (
	warmConnBase = 1000
	peelConnBase = 2000
)

// servedRun is one set-up server: listening, connections warmed up.
type servedRun struct {
	live   *liveServer
	client *client
	warm   loopStats
}

// setUp builds the server, listens and warms the connections up with
// warmupPerConn requests per connection.
func (w serveWorkload) setUp(seed int64, tr *tracer, parent int) (*servedRun, error) {
	cfg := w.config(seed)
	tenants := tenantsOf(cfg)
	sp := tr.begin("server.New", parent, 0)
	live, err := startServer(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c := newClient(serveConns)
	sp = tr.begin("warm-up", parent, 0)
	warm := closedLoop(c, live.base, tenants, opLists(seed, warmConnBase, serveConns, warmupPerConn, w.readRatio, tenants))
	tr.end(sp)
	return &servedRun{live: live, client: c, warm: warm}, nil
}

func (s *servedRun) stop() error {
	s.client.close()
	return s.live.stop()
}

// passResult is one pass: a fresh server set up, one closed loop over
// the pass's op lists, then drained.
type passResult struct {
	setup    time.Duration
	loop     loopStats
	final    server.Snapshot
	devices  []ssd.Results
	newConns int64
	scrapes  []float64 // GET /metrics wall times, µs (traced passes)
}

// pass runs one pass and audits it: every response classified cleanly,
// no dial after warm-up, and each tenant's write acknowledgements
// exactly 1..n with n the server's own ack count.
func (w serveWorkload) pass(seed int64, lists [][]serveOp, tr *tracer, req int64, rep *report) (*passResult, error) {
	tenants := tenantsOf(w.config(seed))
	root := tr.begin("pass", -1, req)
	defer tr.end(root)
	t0 := time.Now()
	run, err := w.setUp(seed, tr, root)
	if err != nil {
		return nil, err
	}
	p := &passResult{setup: time.Since(t0)}
	dials := run.client.dials.Load()
	sp := tr.begin("closed loop", root, req)
	p.loop = closedLoop(run.client, run.live.base, tenants, lists)
	tr.end(sp)
	p.newConns = run.client.dials.Load() - dials
	if tr != nil {
		sp = tr.begin("GET /metrics", root, req)
		for i := 0; i < 20; i++ {
			ts := time.Now()
			status, body, err := run.client.do(http.MethodGet, run.live.base+"/metrics")
			p.scrapes = append(p.scrapes, float64(time.Since(ts))/float64(time.Microsecond))
			var snap server.Snapshot
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &snap) != nil {
				rep.fail("GET /metrics: status %d, err %v", status, err)
				break
			}
		}
		tr.end(sp)
	}
	sp = tr.begin("drain", root, req)
	err = run.stop()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	acks := make([]ackSet, len(tenants))
	for _, ls := range []loopStats{run.warm, p.loop} {
		for _, c := range ls.conns {
			rep.check(c.out.Errors == 0, "%d requests errored, first: %s", c.out.Errors, c.firstErr)
			for t, a := range c.acks {
				acks[t].merge(a)
			}
		}
	}
	final, ok := run.live.srv.FinalSnapshot()
	if !ok {
		return nil, errors.New("server drained without a final snapshot")
	}
	p.final = final
	for ti, t := range tenants {
		rep.check(acks[ti].dense(), "tenant %s: %d write acks are not the sequences 1..%d (%d duplicates)",
			t.Name, acks[ti].n, acks[ti].n, acks[ti].dups)
		rep.check(final.Tenants[ti].AckSeq == uint64(acks[ti].n),
			"tenant %s: server acked %d writes, client saw %d", t.Name, final.Tenants[ti].AckSeq, acks[ti].n)
	}
	rep.check(p.newConns == 0, "%d new connections were dialed after warm-up", p.newConns)
	for k := 0; k < run.live.srv.Shards(); k++ {
		p.devices = append(p.devices, run.live.srv.ShardDevice(k).Results())
	}
	return p, nil
}

// run measures the workload in passes until the run time is spent.
// Each pass sets a fresh server up and replays the same seeded op
// lists, so every pass does the same work from the same state however
// fast the host is. A traced run alternates untraced and traced passes.
func (w serveWorkload) run(o runOpts, rep *report) error {
	cfg := w.config(o.seed)
	tenants := tenantsOf(cfg)
	lists := opLists(o.seed, 0, serveConns, passOps/serveConns, w.readRatio, tenants)

	var (
		plain, traced []*passResult
		newConns      int64
	)
	deadline := time.Now().Add(o.seconds)
	for i := 0; len(plain) == 0 || (o.tr != nil && len(traced) == 0) || time.Now().Before(deadline); i++ {
		var tr *tracer
		if o.tr != nil && i%2 == 1 {
			tr = o.tr
		}
		p, err := w.pass(o.seed, lists, tr, int64(i), rep)
		if err != nil {
			return err
		}
		newConns += p.newConns
		if tr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	var (
		out                              outcomes
		setups, walls, rates, p50s, p99s []float64
		wallH, simH                      histogram
	)
	for _, p := range plain {
		o := p.loop.outcomes()
		out.add(o)
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.loop.wall.Seconds())
		rates = append(rates, float64(o.OK)/p.loop.wall.Seconds())
		h := p.loop.pooled(func(c *connResult) *histogram { return &c.wall })
		p50s = append(p50s, h.quantile(50)/1e3)
		p99s = append(p99s, h.quantile(99)/1e3)
		wallH.merge(h)
		simH.merge(p.loop.pooled(func(c *connResult) *histogram { return &c.sim }))
	}
	rep.attempted = out.attempted()
	rep.failed = out.Errors + out.Retryable
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.set("wall_s", "s", median(walls), len(walls))
	rep.set("ops_per_s", "1/s", median(rates), len(rates))
	rep.setUnitLatency("lat_p50_us", "lat_p99_us", "us", "pass", p50s, p99s, int(wallH.count)/len(plain), int(wallH.count))
	rep.set("ok_ratio", "ratio", 1-out.failRatio(), int(out.attempted()))
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.setNote("bench.fail_ratio", "ratio", out.failRatio(), int(out.attempted()),
		fmt.Sprintf("refused %d, deadline %d, retryable 503 %d, errors %d", out.Refused, out.Deadline, out.Retryable, out.Errors))

	if o.tr == nil {
		return nil
	}
	o.tr.merge("server.http", &wallH)
	rep.set("sim_lat_p99_us", "us", simH.quantile(99)/1e3, int(simH.count))
	rep.set("server.new_conns", "count", float64(newConns), len(plain)+len(traced))
	// Device counters come from one pass, whose work is fixed by the
	// seed; the traced passes are the ones that scrape /metrics.
	last := plain[len(plain)-1]
	setDeviceLayers(rep, last.devices, last.final.Device.Migrations, last.final.Device.Evictions)
	var scrapes, tracedWalls []float64
	for _, p := range traced {
		scrapes = append(scrapes, p.scrapes...)
		tracedWalls = append(tracedWalls, p.loop.wall.Seconds())
	}
	rep.set("server.metrics_scrape_us", "us", median(scrapes), len(scrapes))
	rep.set("bench.trace_overhead_pct", "%", 100*(median(tracedWalls)/median(walls)-1), len(walls)+len(tracedWalls))

	if !w.journal {
		return w.peelLayers(o, rep)
	}
	// The write mix's FTL, journal and admission counters, from the
	// same pass.
	lo := last.loop.outcomes()
	rep.setNote("server.shed", "count", float64(last.final.Shed), 1, fmt.Sprintf("%d of %d requests refused", lo.Refused, lo.attempted()))
	rep.set("server.queue_full", "count", float64(last.final.QueueFull), 1)
	rep.set("server.deadline_exceeded", "count", float64(last.final.DeadlineExceeded), 1)
	var f ftl.Stats
	for _, r := range last.devices {
		f = f.Add(r.FTL)
	}
	setFTLLayers(rep, f)
	return nil
}

// setDeviceLayers records the per-layer device counters summed over
// the given devices' results.
func setDeviceLayers(rep *report, results []ssd.Results, migrations, evictions int64) {
	var (
		level, ber            ssd.CacheStats
		reads, attempts, unrd int64
		levelSum, levelReads  int64
	)
	for _, r := range results {
		level.Hits += r.LevelCache.Hits
		level.Misses += r.LevelCache.Misses
		ber.Hits += r.BERCache.Hits
		ber.Misses += r.BERCache.Misses
		reads += r.Reads
		attempts += r.SensingAttempts
		unrd += r.Unreadable
		for l, n := range r.LevelHist {
			levelSum += int64(l) * n
			levelReads += n
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("ssd.level_cache_misses", "count", float64(level.Misses), 1)
	rep.set("ssd.level_cache_miss_ratio", "ratio", ratio(level.Misses, level.Hits+level.Misses), int(level.Hits+level.Misses))
	rep.set("core.ber_cache_miss_ratio", "ratio", ratio(ber.Misses, ber.Hits+ber.Misses), int(ber.Hits+ber.Misses))
	rep.set("ssd.extra_levels_per_read", "levels", ratio(levelSum, levelReads), int(levelReads))
	rep.set("ssd.sensing_attempts_per_read", "count", ratio(attempts, reads), int(reads))
	rep.set("ssd.unreadable", "count", float64(unrd), 1)
	rep.set("accesseval.migrations", "count", float64(migrations), 1)
	rep.set("accesseval.evictions", "count", float64(evictions), 1)
}

// setFTLLayers records the FTL counters.
func setFTLLayers(rep *report, f ftl.Stats) {
	rep.set("ftl.erases", "count", float64(f.Erases), 1)
	rep.set("ftl.gc_programs", "count", float64(f.GCPrograms), 1)
	rep.set("ftl.write_amp", "ratio", f.WriteAmplification(), 1)
	rep.set("ftl.journal_flushes", "count", float64(f.JournalFlushes), 1)
	rep.set("ftl.meta_programs", "count", float64(f.MetaPrograms), 1)
}

// peelLayers replays one seeded op list at four entry points — loopback
// HTTP, the handler without TCP, core.Runner.StepAt and the device's
// Read/Write — and reports each one's per-op wall time.
func (w serveWorkload) peelLayers(o runOpts, rep *report) error {
	cfg := w.config(o.seed)
	tenants := tenantsOf(cfg)
	lists := opLists(o.seed, peelConnBase, serveConns, peelPerConn, w.readRatio, tenants)

	// Loopback HTTP on a freshly set-up server.
	sp := o.tr.begin("peel: http", -1, 0)
	run, err := w.setUp(o.seed, o.tr, sp)
	if err != nil {
		return err
	}
	httpLoop := closedLoop(run.client, run.live.base, tenants, lists)
	if err := run.stop(); err != nil {
		return err
	}
	o.tr.end(sp)
	httpHist := httpLoop.pooled(func(c *connResult) *histogram { return &c.wall })
	for _, c := range append(run.warm.conns, httpLoop.conns...) {
		rep.check(c.out.Errors == 0, "peel http: %d requests errored, first: %s", c.out.Errors, c.firstErr)
	}

	// The same list through Handler().ServeHTTP: no TCP, no client.
	sp = o.tr.begin("peel: handler", -1, 0)
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	handled := make([]connResult, serveConns)
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, op := range lists[i] {
				method, uri := op.path(tenants)
				req := httptest.NewRequest(method, uri, nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				handled[i].settle(op, tenants, rec.Code, rec.Body.Bytes(), nil, time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	o.tr.end(sp)
	var handlerHist histogram
	for i := range handled {
		handlerHist.merge(&handled[i].wall)
		rep.check(handled[i].out.Errors == 0, "peel handler: %d requests errored, first: %s", handled[i].out.Errors, handled[i].firstErr)
	}

	// The engine's own call: core.Runner.StepAt with the scheduler on,
	// one runner over the whole default device, ops in round-robin
	// order, each arriving one SimGap after the previous.
	sp = o.tr.begin("peel: core.StepAt", -1, 0)
	stepHist, err := peelStepAt(o.seed, tenants, lists)
	o.tr.end(sp)
	if err != nil {
		return err
	}

	// The device: ssd.Device.Read/Write page by page.
	sp = o.tr.begin("peel: ssd", -1, 0)
	readHist, writeHist, err := peelDevice(o.seed, tenants, lists)
	o.tr.end(sp)
	if err != nil {
		return err
	}

	for name, hh := range map[string]*histogram{
		"peel.http": httpHist, "peel.handler": &handlerHist, "peel.stepat": stepHist,
		"peel.ssd_read": readHist, "peel.ssd_write": writeHist,
	} {
		o.tr.merge(name, hh)
	}
	us := func(h *histogram, p float64) float64 { return h.quantile(p) / 1e3 }
	rep.set("server.http_us_p50", "us", us(httpHist, 50), int(httpHist.count))
	rep.set("server.http_us_p99", "us", us(httpHist, 99), int(httpHist.count))
	rep.set("server.handler_us_p50", "us", us(&handlerHist, 50), int(handlerHist.count))
	rep.set("server.handler_us_p99", "us", us(&handlerHist, 99), int(handlerHist.count))
	rep.set("core.stepat_us_p50", "us", us(stepHist, 50), int(stepHist.count))
	rep.set("core.stepat_us_p99", "us", us(stepHist, 99), int(stepHist.count))
	rep.set("ssd.read_us_p50", "us", us(readHist, 50), int(readHist.count))
	rep.set("ssd.write_us_p50", "us", us(writeHist, 50), int(writeHist.count))
	rep.set("server.http_share", "ratio", 1-handlerHist.quantile(50)/httpHist.quantile(50), int(httpHist.count))
	return nil
}

// roundRobin interleaves the per-connection lists into one sequence.
func roundRobin(lists [][]serveOp) []serveOp {
	var out []serveOp
	for i := 0; ; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func peelRunner(seed int64) (*core.Runner, error) {
	opts := core.DefaultOptions(core.FlexLevel, servePE)
	if seed != 0 {
		opts.SSD.Seed = seed
	}
	r, err := core.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	if err := r.EnableScheduler(); err != nil {
		return nil, err
	}
	return r, r.Prepare(nil, opts.SSD.FTL.LogicalPages)
}

func peelStepAt(seed int64, tenants []trace.TenantSpec, lists [][]serveOp) (*histogram, error) {
	r, err := peelRunner(seed)
	if err != nil {
		return nil, err
	}
	h := &histogram{}
	for i, op := range roundRobin(lists) {
		req := trace.Request{Arrival: time.Duration(i) * serveSimGap, Op: trace.Read, LPN: tenants[op.Tenant].Base + op.LPN, Pages: op.Pages, Tenant: op.Tenant}
		if op.Write {
			req.Op = trace.Write
		}
		t0 := time.Now()
		_, err := r.StepAt(req, req.Arrival)
		h.record(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("peel StepAt: %w", err)
		}
	}
	return h, nil
}

func peelDevice(seed int64, tenants []trace.TenantSpec, lists [][]serveOp) (reads, writes *histogram, err error) {
	r, err := peelRunner(seed)
	if err != nil {
		return nil, nil, err
	}
	dev := r.Device()
	reads, writes = &histogram{}, &histogram{}
	for i, op := range roundRobin(lists) {
		now := time.Duration(i) * serveSimGap
		for p := 0; p < op.Pages; p++ {
			lpn := tenants[op.Tenant].Base + op.LPN + uint64(p)
			t0 := time.Now()
			if op.Write {
				_, werr := dev.Write(now, lpn, ftl.NormalState)
				writes.record(time.Since(t0))
				if werr != nil {
					return nil, nil, fmt.Errorf("peel Write: %w", werr)
				}
				continue
			}
			dev.Read(now, lpn)
			reads.record(time.Since(t0))
		}
	}
	return reads, writes, nil
}
