package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamline/internal/core"
	"streamline/internal/daemon"
	"streamline/internal/experiments"
	"streamline/internal/resultstore"
	"streamline/internal/rng"
)

// requestExp is the experiment of daemon request j: a pure function of
// (seed, j), so the request sequence is the same at any client count
// (clients take the next j from a shared counter). Each block of len(ids)
// requests is a seeded permutation of ids, so every run asks for the same
// mix: drawn independently, the share of the one simulated experiment
// would vary by about ±15% between 1000-request runs and move the timings
// with it.
func requestExp(seed uint64, ids []string, j int) string {
	n := len(ids)
	x := rng.New(rng.Derive(seed, rng.HashString("e2ebench-daemon-req"), uint64(j/n)))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := x.Intn(i + 1)
		perm[i], perm[k] = perm[k], perm[i]
	}
	return ids[perm[j%n]]
}

// daemonSeed is the seed the daemon runs a job at: it reads seed 0 as its
// default seed 1.
func daemonSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// daemonWorkload serves the tables from a long-lived daemon over loopback
// HTTP. Set-up starts the daemon and fills its store with one batch job of
// every id; the timed phase is closed-loop single-experiment jobs.
type daemonWorkload struct {
	store     *resultstore.Store
	srv       *daemon.Server
	httpSrv   *http.Server
	serveDone chan error
	base      string
	client    *http.Client
	tracing   atomic.Pointer[tracer] // the traced phase's tracer, nil otherwise
	ref       map[string][]byte
	next      atomic.Int64 // next global request index
}

// jobStatus is the subset of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID     string               `json:"id"`
	State  string               `json:"state"`
	Table  *experiments.Table   `json:"table"`
	Tables []*experiments.Table `json:"tables"`
	Error  string               `json:"error"`
}

func (w *daemonWorkload) setup(b *bench) (float64, error) {
	dir, err := b.newDir("daemon")
	if err != nil {
		return 0, err
	}
	t0 := now()
	if w.store, err = resultstore.Open(dir, resultstore.Options{}); err != nil {
		return 0, err
	}
	core.DropCheckpoints()
	w.srv = daemon.NewServer(w.store, 64, 1) // the streamlined -jobs default
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.timed(w.srv.Handler())}
	w.serveDone = make(chan error, 1)
	go func() { w.serveDone <- w.httpSrv.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.cfg.clients,
		MaxIdleConnsPerHost: b.cfg.clients,
		DisableCompression:  true,
	}}

	st, err := w.runJob(-1, "/jobs/batch", map[string]any{
		"exps": b.cfg.ids, "seed": b.cfg.seed, "quick": true, "workers": workers,
	})
	setupS := now().Sub(t0).Seconds()
	b.check(err == nil && st.State == "done" && len(st.Tables) == len(b.cfg.ids), "daemon batch fill: state %q, %d tables, err %v %s", st.State, len(st.Tables), err, st.Error)
	if err != nil || len(st.Tables) != len(b.cfg.ids) {
		return 0, fmt.Errorf("batch fill failed")
	}
	batch := make(map[string][]byte, len(b.cfg.ids))
	for i, id := range b.cfg.ids {
		batch[id] = formatTable(st.Tables[i])
	}
	b.checkGolden(batch, "daemon batch")
	// The in-process tables for the same (id, seed), read through the same
	// store, are the reference every timed job must reproduce.
	b.opts.Seed = daemonSeed(b.cfg.seed)
	w.ref = b.pass(nil, -1, &phaseResult{}, batch, "in-process vs daemon batch")
	return setupS, nil
}

func formatTable(t *experiments.Table) []byte {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	t.Format(&buf)
	return buf.Bytes()
}

// reqHeader carries the benchmark's request index from client to server so
// the handler spans join the client spans of the same request.
const reqHeader = "X-E2ebench-Req"

// serverSpan names the server span of a daemon route.
func serverSpan(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		return "daemon.submit"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/progress"):
		return "daemon.progress"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
		return "daemon.status"
	}
	return "daemon.other"
}

// timed wraps the daemon's handler with one server span per request while a
// traced phase has set w.tracing. The span covers the handler call only:
// what the client span has beyond it is time in the HTTP client, the
// loopback path and net/http's connection handling.
func (w *daemonWorkload) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t := w.tracing.Load()
		if t == nil {
			h.ServeHTTP(rw, r)
			return
		}
		req, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			req = -1
		}
		name := serverSpan(r)
		end := t.begin(name, "client."+strings.TrimPrefix(name, "daemon."), req)
		h.ServeHTTP(rw, r)
		end()
	})
}

// do sends one request and returns the body of a 2xx response.
func (w *daemonWorkload) do(tr *tracer, j int, span, method, path string, body any) ([]byte, error) {
	end := tr.begin(span, "client.job", j)
	defer end()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		req.Header.Set(reqHeader, strconv.Itoa(j))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// runJob submits a job, waits for its progress stream to end and fetches
// its final status.
func (w *daemonWorkload) runJob(j int, path string, body any) (jobStatus, error) {
	tr := w.tracing.Load()
	var st jobStatus
	data, err := w.do(tr, j, "client.submit", http.MethodPost, path, body)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, err
	}
	if st.ID == "" {
		return st, errors.New("submit returned no job id")
	}
	id := st.ID
	if _, err := w.do(tr, j, "client.progress", http.MethodGet, "/jobs/"+id+"/progress", nil); err != nil {
		return st, err
	}
	if data, err = w.do(tr, j, "client.status", http.MethodGet, "/jobs/"+id, nil); err != nil {
		return st, err
	}
	st = jobStatus{}
	err = json.Unmarshal(data, &st)
	return st, err
}

// sentReq is one request a client sent: its index and experiment.
type sentReq struct {
	j   int
	exp string
}

// jobOutcome is one timed request's result, recorded by its client.
type jobOutcome struct {
	sentReq
	lat  time.Duration
	fail string // empty when the job succeeded and matched
}

func (w *daemonWorkload) phase(b *bench, tr *tracer) (*phaseResult, error) {
	co0, err := w.coalesced()
	if err != nil {
		return nil, err
	}
	w.tracing.Store(tr)
	defer w.tracing.Store(nil)
	seed := daemonSeed(b.cfg.seed)
	outcomes := make([][]jobOutcome, b.cfg.clients)
	ph, err := measure(tr, func(ph *phaseResult) error {
		s0 := w.store.Stats()
		start := now()
		var completed atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < b.cfg.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var mine []jobOutcome
				for !phaseDone(b.cfg, now().Sub(start), int(completed.Load())) {
					j := int(w.next.Add(1) - 1)
					exp := requestExp(b.cfg.seed, b.cfg.ids, j)
					end := tr.begin("client.job", "", j)
					t0 := now()
					st, err := w.runJob(j, "/jobs", map[string]any{
						"exp": exp, "seed": b.cfg.seed, "quick": true, "workers": workers,
					})
					o := jobOutcome{sentReq: sentReq{j, exp}, lat: now().Sub(t0)}
					end()
					switch {
					case err != nil:
						o.fail = fmt.Sprintf("job %d (%s): %v", j, exp, err)
					case st.State != "done":
						o.fail = fmt.Sprintf("job %d (%s): state %q %s", j, exp, st.State, st.Error)
					case !bytes.Equal(formatTable(st.Table), w.ref[exp]):
						o.fail = fmt.Sprintf("job %d (%s) at seed %d: table differs from the in-process table", j, exp, seed)
					}
					mine = append(mine, o)
					completed.Add(1)
				}
				outcomes[c] = mine
			}(c)
		}
		wg.Wait()
		elapsed := now().Sub(start)
		var all []jobOutcome
		for _, o := range outcomes {
			all = append(all, o...)
		}
		sort.Slice(all, func(a, z int) bool { return all[a].j < all[z].j })
		for _, o := range all {
			b.check(o.fail == "", "%s", o.fail)
			ph.addLatency(o.exp, ms(o.lat))
			ph.sent = append(ph.sent, o.sentReq)
		}
		// A pass is len(ids) jobs. Jobs draw ids at random, so a window of
		// len(ids) completions holds 0, 1 or more of the slow simulated
		// jobs and its length is bimodal; the phase mean is steady.
		ph.tables = len(all)
		ph.units = float64(len(all)) / float64(len(b.cfg.ids))
		ph.passS = []float64{elapsed.Seconds() / ph.units}
		addStats(&ph.store, s0, w.store.Stats())
		return nil
	})
	if err != nil {
		return nil, err
	}
	co1, err := w.coalesced()
	if err != nil {
		return nil, err
	}
	ph.coalesced = co1 - co0
	b.checkStore(w.store)
	return ph, nil
}

// coalesced reads the daemon's singleflight attach count from /store/stats.
func (w *daemonWorkload) coalesced() (uint64, error) {
	data, err := w.do(nil, -1, "", http.MethodGet, "/store/stats", nil)
	if err != nil {
		return 0, err
	}
	var st struct {
		Coalesced uint64 `json:"coalesced"`
	}
	err = json.Unmarshal(data, &st)
	return st.Coalesced, err
}

func (w *daemonWorkload) close() {
	if w.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.httpSrv.Shutdown(ctx)
		cancel()
		<-w.serveDone
	}
	if w.srv != nil {
		w.srv.Drain()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
