package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fcpn/internal/coord"
	"fcpn/internal/engine"
	"fcpn/internal/server"
)

// stack is the serve topology inside the benchmark process: a
// coordinator in front of two single-shard backends, each on its own
// loopback listener.
type stack struct {
	backends []*server.Server
	coord    *coord.Coordinator
	servers  []*http.Server
	serving  sync.WaitGroup
	url      string
	client   *http.Client
}

// middleware wraps a handler; the traced replay times the coordinator and
// the backends with it.
type middleware func(http.Handler) http.Handler

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// bootStack starts the backends and the coordinator and waits until the
// coordinator reports ready. Each backend engine has one worker, so the
// stack runs at most two analyses at once.
func bootStack(wrapBackend, wrapCoord middleware) (*stack, error) {
	st := &stack{client: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
	}}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{Shards: 1, Engine: engine.Config{Workers: 1}})
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, srv)
		h := srv.Handler()
		if wrapBackend != nil {
			h = wrapBackend(h)
		}
		u, err := st.listen(h)
		if err != nil {
			st.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	c, err := coord.New(coord.Config{Backends: urls, Seed: 1})
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = c
	h := c.Handler()
	if wrapCoord != nil {
		h = wrapCoord(h)
	}
	if st.url, err = st.listen(h); err != nil {
		st.close()
		return nil, err
	}
	for t0 := time.Now(); ; {
		resp, err := st.client.Get(st.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return st, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			st.close()
			return nil, errors.New("serve stack never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the listeners (coordinator first), then the coordinator and
// the backends, and waits for every serving goroutine.
func (st *stack) close() {
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		st.servers[i].Shutdown(ctx)
	}
	if st.coord != nil {
		st.coord.Close()
	}
	for _, b := range st.backends {
		b.Close()
	}
	st.serving.Wait()
}

// envelope is the part of the coordinator's reply the checks read.
type envelope struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Degraded bool            `json:"degraded"`
	Report   json.RawMessage `json:"report"`
}

// post sends one analysis request and returns the status and body.
func (st *stack) post(text string) (int, []byte, error) {
	resp, err := st.client.Post(st.url+"/v1/analyze", "text/plain", strings.NewReader(text))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// replyProblem checks a reply: a 200 carrying an ok, non-degraded report
// with the item's known verdict. It returns the report bytes.
func replyProblem(it item, code int, body []byte, err error) (json.RawMessage, string) {
	if err != nil {
		return nil, "request failed: " + err.Error()
	}
	var env envelope
	if jerr := json.Unmarshal(body, &env); jerr != nil {
		return nil, fmt.Sprintf("HTTP %d with unreadable body", code)
	}
	if code != http.StatusOK || env.Status != string(engine.StatusOK) || env.Degraded {
		return nil, fmt.Sprintf("HTTP %d status %q degraded=%v: %s", code, env.Status, env.Degraded, env.Error)
	}
	var rep engine.NetReport
	if jerr := json.Unmarshal(env.Report, &rep); jerr != nil {
		return nil, "unreadable report"
	}
	if p := verdictProblem(it, &rep, nil); p != "" {
		return nil, p
	}
	return env.Report, ""
}

// serveLoad is the serve workload: a catalog warmed into the stack, a
// pool of never-seen nets, and the stack itself.
type serveLoad struct {
	seed    uint64
	catalog []item
	fresh   []item
	ref     []json.RawMessage
	st      *stack
}

// serveCorpus draws the catalog of generated nets and a pool of
// never-seen nets large enough for the run. The paper nets stay out: the
// ATM server's report is a hundred times the size of the others, so its
// popularity rank, which the seed draws, would set the throughput.
func serveCorpus(seed uint64, scale, seconds float64) (catalog, fresh []item) {
	g := newGenerator(seed, 3, map[string]bool{})
	catalog = g.draw(serveBand, scaled(400, scale), true)
	pool := int(400 * seconds)
	if pool < 2000 {
		pool = 2000
	}
	fresh = g.draw(serveBand, scaled(pool, scale), false)
	return catalog, fresh
}

// warm sends every catalog net once on two clients, checking each reply
// and keeping its report as the reference for later hits and twins.
func (sl *serveLoad) warm(st *stack, fails *failures) []json.RawMessage {
	ref := make([]json.RawMessage, len(sl.catalog))
	pass(len(sl.catalog), 2, func(i int) {
		it := sl.catalog[i]
		code, body, err := st.post(it.text)
		rep, p := replyProblem(it, code, body, err)
		if p != "" {
			fails.add(it.source, p)
			return
		}
		ref[i] = rep
	})
	return ref
}

// serveOp is one request of the closed loop.
type serveOp struct {
	it    item
	text  string
	ref   json.RawMessage // nil for never-seen nets
	fresh bool
	twin  bool
}

// schedule yields one client's request stream: every tenth request a
// never-seen net, the rest drawn from the catalog over a seeded ranking
// with popularity proportional to (10+rank)^-1.1 (the top ten ranks draw
// about a quarter of the requests), half of them as permuted twins.
type schedule struct {
	sl    *serveLoad
	k     int
	r     *rng
	zipf  *rand.Zipf
	rank  []int
	fresh *atomic.Int64
}

func (sl *serveLoad) schedule(client int, fresh *atomic.Int64) *schedule {
	rank := make([]int, len(sl.catalog))
	rr := newRng(sl.seed, 50)
	for i := range rank {
		rank[i] = i
	}
	for i := len(rank) - 1; i > 0; i-- {
		j := rr.intn(i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	src := rand.New(rand.NewSource(int64(sl.seed)*131 + int64(client)))
	return &schedule{
		sl: sl, r: newRng(sl.seed, uint64(100+client)), rank: rank, fresh: fresh,
		zipf: rand.NewZipf(src, 1.1, 10, uint64(len(sl.catalog)-1)),
	}
}

// next returns the next request, or false once the never-seen pool is
// used up.
func (s *schedule) next() (serveOp, bool) {
	s.k++
	if s.k%10 == 0 {
		j := int(s.fresh.Add(1) - 1)
		if j >= len(s.sl.fresh) {
			return serveOp{}, false
		}
		it := s.sl.fresh[j]
		return serveOp{it: it, text: it.text, fresh: true}, true
	}
	idx := s.rank[s.zipf.Uint64()]
	it := s.sl.catalog[idx]
	op := serveOp{it: it, text: it.text, ref: s.sl.ref[idx]}
	if s.r.float() < 0.5 {
		op.text, op.twin = it.twin, true
	}
	return op, true
}

// check verifies one closed-loop reply. A catalog reply must carry the
// warm-up report byte for byte, which was checked against its known
// verdict then; a never-seen net's report is checked in full.
func (op serveOp) check(code int, body []byte, err error) string {
	if op.fresh {
		_, p := replyProblem(op.it, code, body, err)
		return p
	}
	if err != nil {
		return "request failed: " + err.Error()
	}
	var env envelope
	if jerr := json.Unmarshal(body, &env); jerr != nil || code != http.StatusOK ||
		env.Status != string(engine.StatusOK) || env.Degraded {
		return fmt.Sprintf("HTTP %d status %q degraded=%v: %s", code, env.Status, env.Degraded, env.Error)
	}
	if !bytes.Equal(env.Report, op.ref) {
		return "report differs from the catalog reference"
	}
	return ""
}

// serveRun is the closed loop's outcome at the reference host speed:
// latencies are scaled by the meter's reading over the window they
// started in, and each rate is the median over windows of the window's
// count divided by its scaled duration.
type serveRun struct {
	all, fresh                   samples
	reqRate, freshRate, twinRate float64
	speeds                       []float64
	exhausted                    bool
}

// sample is one request's latency, the window it started in and what
// kind of request it was.
type sample struct {
	d      time.Duration
	window int
	fresh  bool
	twin   bool
}

// measure runs the closed loop: two clients, each sending its next
// request only after the previous reply arrived, until the time is up
// and the never-seen share has ten samples beyond its p99. The loop is cut
// into one-second windows.
func (sl *serveLoad) measure(seconds float64, meter *speedMeter, fails *failures) *serveRun {
	var (
		window    atomic.Int64
		freshNext atomic.Int64
		freshDone atomic.Int64
		exhausted atomic.Bool
		stopped   atomic.Bool
		wg        sync.WaitGroup
	)
	per := make([][]sample, 2)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sched := sl.schedule(c, &freshNext)
			for !stopped.Load() {
				w := int(window.Load())
				op, ok := sched.next()
				if !ok {
					exhausted.Store(true)
					return
				}
				t0 := time.Now()
				code, body, err := sl.st.post(op.text)
				d := time.Since(t0)
				per[c] = append(per[c], sample{d: d, window: w, fresh: op.fresh, twin: op.twin})
				if op.fresh {
					freshDone.Add(1)
				}
				if p := op.check(code, body, err); p != "" {
					fails.add(op.it.source, p)
				}
			}
		}(c)
	}
	var walls []time.Duration
	var speeds []float64
	measured := 0.0
	meter.speed()
	for t0 := time.Now(); ; {
		time.Sleep(time.Second)
		now := time.Now()
		window.Add(1)
		walls = append(walls, now.Sub(t0))
		speeds = append(speeds, meter.speed())
		t0 = now
		measured += walls[len(walls)-1].Seconds()
		if exhausted.Load() || measured > 150 || (measured >= seconds && freshDone.Load() >= 1000) {
			stopped.Store(true)
			break
		}
	}
	wg.Wait()

	run := &serveRun{exhausted: exhausted.Load(), speeds: speeds}
	counts := make([][3]int, len(walls)) // requests, never-seen, twins
	for _, ss := range per {
		for _, s := range ss {
			if s.window >= len(walls) {
				continue // started after the last window closed
			}
			d := time.Duration(float64(s.d) * speeds[s.window])
			run.all = append(run.all, d)
			counts[s.window][0]++
			if s.fresh {
				run.fresh = append(run.fresh, d)
				counts[s.window][1]++
			}
			if s.twin {
				counts[s.window][2]++
			}
		}
	}
	var rates [3][]float64
	for w, c := range counts {
		for k := range rates {
			rates[k] = append(rates[k], float64(c[k])/(walls[w].Seconds()*speeds[w]))
		}
	}
	run.reqRate, run.freshRate, run.twinRate = median(rates[0]), median(rates[1]), median(rates[2])
	return run
}
