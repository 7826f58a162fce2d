package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"conquer/internal/bench"
	"conquer/internal/cache"
	"conquer/internal/core"
	"conquer/internal/dirty"
	"conquer/internal/engine"
	"conquer/internal/metrics"
	"conquer/internal/server"
	"conquer/internal/value"
)

// The serve workload's fixed shape. The rate is about a fifth of the
// closed-loop capacity of two connections (170–190 requests/s on a
// 2-core host at the commit that added the benchmark): at half capacity
// the load generator, which shares the two cores with the server, ran
// late often enough that p50 swung by half between runs (README.md).
// The rate stays fixed so later changes show as latency, not as a
// different load.
const (
	serveRate        = 40.0 // requests per second, open loop
	serveConns       = 2
	servePerTemplate = 8       // distinct bindings per template
	serveCacheBytes  = 4 << 20 // tenant cache budget, below the working set
	serveWarmup      = 200     // closed-loop requests before timing
	serveKey         = "bench-key"
	spanHeader       = "X-Bench-Span"
	reqHeader        = "X-Bench-Req"
)

// serveState is one running server: the instance, the server over it,
// and the loopback HTTP listener in front.
type serveState struct {
	d    *dirty.DB
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error // receives Serve's return once it has stopped
}

// startServer generates the instance and starts the server; it returns
// once /healthz answers.
func startServer(r *run, handler func(*server.Server) http.Handler, genMs *[]float64) (*serveState, error) {
	start := time.Now()
	d, err := bench.GenerateWorkload(instSF, instIF, instScale, instSeed)
	*genMs = append(*genMs, ms(time.Since(start)))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(d.Store, server.Config{
		Tenants:  []server.TenantConfig{{Name: "bench", Key: serveKey, Preset: "standard", CacheBytes: serveCacheBytes}},
		Registry: metrics.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveState{d: d, srv: srv, hs: &http.Server{Handler: handler(srv)},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = s.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// stop drains the server, closes the listener and waits for Serve to
// return.
func (s *serveState) stop() error {
	derr := s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := s.hs.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(derr, serr)
}

// serveRef is the reference answer of one statement on one endpoint.
type serveRef struct {
	fc   []bool
	want digest
}

// outcome is what the client learned from one response.
type outcome struct {
	status    int
	bytes     int
	clean     bool
	cached    bool
	degraded  bool // answered below the rewrite rung
	queuedUs  int64
	execUs    int64
	sinceSent time.Duration // client latency from the actual send
}

// serveRun is one serve run's client side.
type serveRun struct {
	r        *run
	st       *serveState
	client   *http.Client
	bindings []binding
	reqs     []request
	queryRef []serveRef // per binding, /v1/query
	cleanRef []serveRef // per binding, /v1/clean
	hp       heapPeak
	hashSeed maphash.Seed // hashes verified payloads

	mu       sync.Mutex // guards hp, verified and outcomes
	verified map[verifiedKey]bool
	outcomes []outcome
}

type verifiedKey struct {
	binding int
	clean   bool
	payload uint64
}

func runServe(r *run) error {
	var genMs []float64
	handler := func(srv *server.Server) http.Handler { return srv }
	if r.tr != nil {
		handler = func(srv *server.Server) http.Handler { return tracedHandler(r.tr, srv) }
	}
	st, err := timeSetup(r, func() (*serveState, error) { return startServer(r, handler, &genMs) },
		func(s *serveState) { _ = s.stop() })
	if err != nil {
		return err
	}
	defer func() {
		if err := st.stop(); err != nil {
			r.fail(fmt.Errorf("stopping server: %w", err))
		}
	}()
	r.info["rows"] = tableRows(st.d.Store)
	r.info["instance_seed"] = instSeed

	bindings, err := genBindings(r.seed, servePerTemplate)
	if err != nil {
		return err
	}
	// Enough requests for a p99 with ten samples beyond it, even when
	// that takes longer than --seconds.
	n := max(int(serveRate*r.seconds.Seconds()), minSamples(99))
	s := &serveRun{
		r: r, st: st, bindings: bindings,
		reqs: genRequests(r.seed, servePerTemplate, serveWarmup+n),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns,
		}},
		hashSeed: maphash.MakeSeed(),
		verified: make(map[verifiedKey]bool),
	}
	defer s.client.CloseIdleConnections()
	if err := s.references(); err != nil {
		return err
	}

	// Warm-up: closed loop over the first requests, filling the cache.
	for _, w := range runOpenLoop(context.Background(), serveWarmup, 0, serveConns, s.do) {
		r.attempted++
		if w.Err != nil {
			r.fail(fmt.Errorf("warm-up: %w", w.Err))
		}
	}
	s.outcomes = s.outcomes[:0]
	s.hp.reset()

	start := time.Now()
	samples := runOpenLoop(context.Background(), n, time.Second/serveRate, serveConns,
		func(i int) error { return s.do(serveWarmup + i) })
	r.info["achieved_per_s"] = float64(len(samples)) / time.Since(start).Seconds()
	return s.report(samples, genMs)
}

// references computes every statement's reference answer serially
// (parallelism 1, shards 1) — the /v1/query rewriting through the
// engine, the /v1/clean answers through core.ViaRewriting — and checks
// that the /v1/query working set exceeds the cache budget.
func (s *serveRun) references() error {
	eng := engine.NewWithOptions(s.st.d.Store, engine.Options{Parallelism: 1, Shards: 1})
	var working int64
	for _, b := range s.bindings {
		res, err := eng.QueryStmt(b.Rewritten)
		if err != nil {
			return fmt.Errorf("Q%d %v reference: %w", b.Query, b.Values, err)
		}
		working += cache.SizeOfRows(res.Columns, res.Rows)
		fc := floatColumns(len(res.Columns), res.Rows)
		s.queryRef = append(s.queryRef, serveRef{fc, digestValues(fc, res.Rows)})

		cr, err := core.ViaRewriting(s.st.d, b.Original)
		if err != nil {
			return fmt.Errorf("Q%d %v clean reference: %w", b.Query, b.Values, err)
		}
		rows := make([][]value.Value, len(cr.Answers))
		for i, a := range cr.Answers {
			rows[i] = append(append([]value.Value(nil), a.Values...), value.Float(a.Prob))
		}
		fc = floatColumns(len(cr.Columns)+1, rows)
		fc[len(cr.Columns)] = true
		s.cleanRef = append(s.cleanRef, serveRef{fc, digestValues(fc, rows)})
	}
	s.r.info["serve"] = map[string]any{
		"bindings":           len(s.bindings),
		"templates":          len(serveTemplates),
		"working_set_bytes":  working,
		"cache_budget_bytes": serveCacheBytes,
		"rate_per_s":         serveRate,
		"connections":        serveConns,
	}
	if working <= serveCacheBytes {
		return fmt.Errorf("working set %d bytes does not exceed the cache budget %d", working, serveCacheBytes)
	}
	return nil
}

// do sends request i, then checks its answer outside the timed window.
// Traced runs trace every other timed request, so traced and untraced
// requests interleave under the same load.
func (s *serveRun) do(i int) error {
	rq := s.reqs[i]
	b := s.bindings[rq.Binding]
	path, sql := "/v1/query", b.CleanSQL
	if rq.Clean {
		path, sql = "/v1/clean", b.SQL
	}
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, s.st.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+serveKey)
	traced := s.r.tr != nil && i >= serveWarmup && i%2 == 0
	var end func()
	if traced {
		var id int64
		id, end = s.r.tr.begin("client.request", 0, int64(i))
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(reqHeader, strconv.Itoa(i))
	}
	sent := time.Now()
	resp, err := s.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o := outcome{sinceSent: time.Since(sent), clean: rq.Clean}
	if end != nil {
		end()
	}
	s.mu.Lock()
	s.hp.sample()
	s.mu.Unlock()
	if err != nil {
		s.record(o)
		return err
	}
	o.status, o.bytes = resp.StatusCode, len(data)
	if resp.StatusCode != http.StatusOK {
		s.record(o)
		return fmt.Errorf("%s Q%d %v: %s", path, b.Query, b.Values, resp.Status)
	}
	err = s.check(rq, data, &o)
	s.record(o)
	if err != nil {
		return fmt.Errorf("%s Q%d %v: %w", path, b.Query, b.Values, err)
	}
	return nil
}

func (s *serveRun) record(o outcome) {
	s.mu.Lock()
	s.outcomes = append(s.outcomes, o)
	s.mu.Unlock()
}

// tail is the part of a response after its rows: the evaluation method
// and the stats block.
type tail struct {
	Method string            `json:"method"`
	Stats  server.QueryStats `json:"stats"`
}

// check reads the stats from a 200 body and compares its answer with the
// statement's reference. A payload already verified for this statement
// is recognized by its hash, so the full decode runs once per distinct
// answer rather than once per request.
func (s *serveRun) check(rq request, data []byte, o *outcome) error {
	sep := []byte(`],"stats":`)
	if rq.Clean {
		sep = []byte(`],"method":`)
	}
	cut := bytes.LastIndex(data, sep)
	if cut < 0 {
		return fmt.Errorf("malformed response body")
	}
	var t tail
	if err := json.Unmarshal(append([]byte("{"), data[cut+2:]...), &t); err != nil {
		return fmt.Errorf("decoding stats: %w", err)
	}
	o.cached, o.queuedUs, o.execUs = t.Stats.Cached, t.Stats.QueuedMicros, t.Stats.ExecMicros
	o.degraded = rq.Clean && t.Method != core.MethodExact.String() && t.Method != core.MethodRewrite.String()

	key := verifiedKey{rq.Binding, rq.Clean, maphash.Bytes(s.hashSeed, data[:cut])}
	s.mu.Lock()
	done := s.verified[key]
	s.mu.Unlock()
	if done {
		return nil
	}
	ref := s.queryRef[rq.Binding]
	if rq.Clean {
		ref = s.cleanRef[rq.Binding]
	}
	rows, err := decodeRows(data, rq.Clean)
	if err != nil {
		return err
	}
	d, err := digestJSON(ref.fc, rows)
	if err != nil {
		return err
	}
	if err := ref.want.match(d); err != nil {
		return err
	}
	s.mu.Lock()
	s.verified[key] = true
	s.mu.Unlock()
	return nil
}

// decodeRows decodes a 200 body's answer rows; a /v1/clean answer
// becomes its values followed by its probability.
func decodeRows(data []byte, clean bool) ([][]any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if !clean {
		var q struct {
			Rows [][]any `json:"rows"`
		}
		if err := dec.Decode(&q); err != nil {
			return nil, fmt.Errorf("decoding rows: %w", err)
		}
		return q.Rows, nil
	}
	var c struct {
		Answers []struct {
			Values []any       `json:"values"`
			Prob   json.Number `json:"prob"`
		} `json:"answers"`
	}
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("decoding answers: %w", err)
	}
	rows := make([][]any, len(c.Answers))
	for i, a := range c.Answers {
		rows[i] = append(a.Values, a.Prob)
	}
	return rows, nil
}

// tracedHandler wraps the server's ServeHTTP in a span whose parent is
// the client span named in the request's header.
func tracedHandler(tr *tracer, srv *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			srv.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		_, end := tr.begin("server.ServeHTTP", parent, id)
		srv.ServeHTTP(w, req)
		end()
	})
}

// report turns the timed samples into metrics.
func (s *serveRun) report(samples []sample, genMs []float64) error {
	r := s.r
	var lat, tracedLat, plainLat, lag []float64
	type kind struct {
		query int
		clean bool
	}
	byKind := make(map[kind][]float64)
	for i, smp := range samples { // sample i is request serveWarmup+i
		r.attempted++
		if smp.Err != nil {
			r.fail(smp.Err)
			continue
		}
		l := ms(smp.Latency())
		lat = append(lat, l)
		rq := s.reqs[serveWarmup+i]
		k := kind{s.bindings[rq.Binding].Query, rq.Clean}
		byKind[k] = append(byKind[k], l)
		lag = append(lag, ms(smp.Lag()))
		if r.tr != nil && (serveWarmup+i)%2 == 0 {
			tracedLat = append(tracedLat, l)
		} else {
			plainLat = append(plainLat, l)
		}
	}
	if r.tr == nil {
		p50, ok50 := percentile(lat, 50)
		p99, ok99 := percentile(lat, 99)
		if !ok50 || !ok99 {
			return fmt.Errorf("%d successful requests are too few for a p99", len(lat))
		}
		// A request's kind is its template and endpoint: 24 kinds.
		var kinds []float64
		for _, xs := range byKind {
			kinds = append(kinds, median(xs))
		}
		sort.Float64s(kinds) // a fixed order for the floating-point sum
		r.set("op_ms", p50, "ms")
		r.set("geomean_ms", geomean(kinds), "ms")
		r.set("peak_heap_mb", s.hp.mb(), "MB")
		r.okRatio()
		r.info["latency_ms"] = map[string]float64{"p50": p50, "p99": p99}
		r.info["samples"] = map[string]int{"requests": len(lat), "kinds": len(kinds)}
		return nil
	}

	var shed, errs, queries, hits float64
	var kb, queueMs, evalMs, hitMs, missMs []float64
	var degraded float64
	for _, o := range s.outcomes {
		switch {
		case o.status == http.StatusTooManyRequests:
			shed++
			continue
		case o.status != http.StatusOK:
			errs++
			continue
		}
		kb = append(kb, float64(o.bytes)/1024)
		queueMs = append(queueMs, float64(o.queuedUs)/1000)
		if o.clean {
			evalMs = append(evalMs, float64(o.execUs)/1000)
			if o.degraded {
				degraded++
			}
			continue
		}
		queries++
		if o.cached {
			hits++
			hitMs = append(hitMs, ms(o.sinceSent))
		} else {
			missMs = append(missMs, ms(o.sinceSent))
		}
	}
	spans := r.tr.snapshot()
	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var handle, transport []float64
	for _, sp := range spans {
		if sp.Name != "server.ServeHTTP" {
			continue
		}
		handle = append(handle, ms(sp.dur()))
		transport = append(transport, ms(byID[sp.Parent].dur()-sp.dur()))
	}
	p99lag, _ := percentile(lag, 99)
	r.set("server.handle_ms", median(handle), "ms")
	r.set("server.transport_ms", median(transport), "ms")
	r.set("server.resp_kb", mean(kb), "KB")
	r.set("server.queue_ms", mean(queueMs), "ms")
	r.set("server.shed", shed, "count")
	r.set("server.errors", errs, "count")
	r.set("cache.hit_ratio", hits/max(queries, 1), "ratio")
	r.set("cache.query_requests", queries, "count")
	r.set("cache.hit_ms", median(hitMs), "ms")
	r.set("cache.miss_ms", median(missMs), "ms")
	r.set("core.eval_ms", median(evalMs), "ms")
	r.set("core.degraded", degraded, "count")
	r.set("harness.lag_ms", p99lag, "ms")
	r.set("uisgen.generate_ms", median(genMs), "ms")
	r.set("tracing.overhead", median(tracedLat)/median(plainLat), "ratio")
	return nil
}
