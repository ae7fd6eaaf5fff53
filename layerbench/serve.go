package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"locsample"
)

const (
	// serveRate is the open loop's offered load, about a quarter of what
	// its one connection carries closed-loop on a 2-vCPU host (about
	// 300 rps): high enough to queue now and then, low enough that the
	// tail measures the server, not a backlog.
	serveRate = 75.0
	// serveTailPct is p95, not p99: on a 2-vCPU host the p99 of an open
	// loop spread 0.18 to 0.43 (IQR/median over ten seeds) at 150 rps
	// over two connections, more than any bound may be, and 0.18 where
	// p95 spread 0.08 on the same ten runs at 75 rps over one.
	serveTailPct = 95.0
	// serveLimit is the latency limit of max_rate_rps.
	serveLimit     = 25 * time.Millisecond
	serveSetupReps = 11
	// serveSatShare is the share of --seconds given to the closed-loop
	// saturation phase that follows the open loop; the rest goes to the
	// open loop.
	serveSatShare = 0.3
	// serveRefEvery: one response in serveRefEvery is compared against a
	// local draw.
	serveRefEvery = 25
)

// serveClass is one of the three k=1 request classes, each a small
// model that fits in L2 and costs a few ms per draw.
type serveClass struct {
	name      string
	spec      *locsample.Spec
	algorithm string // request override; "" for the CSP
	family    string // engine label of the class's locsample_* series
	n         int
	check     func(x []int) error

	id     string // model ID once registered
	rounds int    // chain rounds per draw, from the warm-up response
	body   string // request body prefix, up to the seed
	ref    func(seed uint64) ([]int, error)
}

func serveClasses() ([]*serveClass, error) {
	col, hc, ds := grid{32, 32}, grid{24, 24}, grid{32, 32}
	gridSpec := func(g grid) locsample.GraphSpec {
		return locsample.GraphSpec{Family: "grid", Rows: g.rows, Cols: g.cols}
	}
	ones := make([]int, ds.n())
	cons := make([]locsample.ConstraintSpec, ds.n())
	for v := range cons {
		ones[v] = 1
		cons[v] = locsample.ConstraintSpec{Kind: "cover", Scope: ds.neighbors(v, []int{v})}
	}
	classes := []*serveClass{{
		name: "coloring", algorithm: "localmetropolis", family: "mrf", n: col.n(),
		spec:  &locsample.Spec{Version: "locsample/v1", Graph: gridSpec(col), Model: locsample.ModelSpec{Kind: "coloring", Q: 16}},
		check: func(x []int) error { return checkColoring(col, 16, x) },
	}, {
		name: "hardcore", algorithm: "lubyglauber", family: "mrf", n: hc.n(),
		spec:  &locsample.Spec{Version: "locsample/v1", Graph: gridSpec(hc), Model: locsample.ModelSpec{Kind: "hardcore", Lambda: 1}},
		check: func(x []int) error { return checkIndependent(hc, x) },
	}, {
		name: "domset", family: "csp", n: ds.n(),
		spec: &locsample.Spec{Version: "locsample/v1", Graph: gridSpec(ds), Model: locsample.ModelSpec{
			Kind: "csp", Q: 2, Constraints: cons, Init: ones, Rounds: 64}},
		check: func(x []int) error { return checkDominating(ds, x) },
	}}
	for _, c := range classes {
		if err := c.buildRef(); err != nil {
			return nil, fmt.Errorf("class %s: %w", c.name, err)
		}
		if c.algorithm != "" {
			c.body = fmt.Sprintf(`{"k":1,"algorithm":%q,"seed":`, c.algorithm)
		} else {
			c.body = `{"k":1,"seed":`
		}
	}
	return classes, nil
}

// buildRef prepares the local reference draw: the class's spec built
// through BuildSpec, sampled at ChainSeed(seed, 0) — what the server's
// chain 0 must equal byte for byte.
func (c *serveClass) buildRef() error {
	b, err := locsample.BuildSpec(c.spec)
	if err != nil {
		return err
	}
	if b.CSP != nil {
		c.ref = func(seed uint64) ([]int, error) {
			s, err := locsample.NewCSPSampler(b.Graph, b.CSP, b.Init,
				locsample.WithRounds(b.Rounds), locsample.WithSeed(locsample.ChainSeed(seed, 0)))
			if err != nil {
				return nil, err
			}
			x, _, err := s.Sample()
			return x, err
		}
		return nil
	}
	alg := locsample.LocalMetropolis
	if c.algorithm == "lubyglauber" {
		alg = locsample.LubyGlauber
	}
	c.ref = func(seed uint64) ([]int, error) {
		s, err := locsample.NewSampler(b.Model, locsample.WithAlgorithm(alg), locsample.WithSeed(locsample.ChainSeed(seed, 0)))
		if err != nil {
			return nil, err
		}
		r, err := s.Sample()
		if err != nil {
			return nil, err
		}
		return r.Sample, nil
	}
	return nil
}

func (c *serveClass) request(seed uint64) []byte {
	return []byte(c.body + strconv.FormatUint(seed, 10) + "}")
}

// server is a running lserved process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error // cmd.Wait's result, once exited is closed
}

// startServer spawns lserved on a free loopback port and waits until it
// answers /healthz.
func startServer(path, logPath string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := spawnServer(path, logPath)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func spawnServer(path, logPath string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s := &server{addr: addr, exited: make(chan struct{})}
	// lserved runs at nice +5: the generator shares its CPUs, and a
	// sender waking at a due time must not queue behind draws (the
	// clients it stands for run on other machines). The generator
	// itself uses little CPU.
	s.cmd = exec.Command(path, "-addr", addr)
	if nice, err := exec.LookPath("nice"); err == nil {
		s.cmd = exec.Command(nice, "-n", "5", path, "-addr", addr)
	}
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lserved: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do("GET", "/healthz", nil)
			c.close()
			if err == nil && status == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("lserved exited before serving (see %s): %v", logPath, s.err)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("lserved did not answer /healthz on %s", addr)
		}
	}
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after a
// grace period), waits for it, and returns its peak RSS in KiB.
func (s *server) stop() int64 {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// client is one keep-alive HTTP/1.1 connection, spoken directly so the
// generator adds no goroutine hand-offs of its own to each exchange.
type client struct {
	c   net.Conn
	br  *bufio.Reader
	req bytes.Buffer
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (k *client) close() { k.c.Close() }

// dialAll opens n connections to addr.
func dialAll(addr string, n int) ([]*client, error) {
	clients := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// do sends one request and reads the whole response.
func (k *client) do(method, path string, body []byte) (int, []byte, error) {
	k.req.Reset()
	fmt.Fprintf(&k.req, "%s %s HTTP/1.1\r\nHost: lserved\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&k.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	k.req.WriteString("\r\n")
	k.req.Write(body)
	if _, err := k.c.Write(k.req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func (k *client) post(path string, body []byte) ([]byte, error) {
	status, data, err := k.do("POST", path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return nil, fmt.Errorf("POST %s: %d %s", path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads the server's /metrics over a connection of its own.
func (s *server) scrape() (exposition, error) {
	c, err := dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", status)
	}
	return parseExposition(bytes.NewReader(data))
}

// exchange is one timed request.
type exchange struct {
	class int
	seed  uint64
	// due is when an open-loop request was scheduled (zero in the
	// saturation phase); free is when its connection became free.
	due, free, send, done time.Time
	body                  []byte
	err                   error
}

func (e *exchange) latency() time.Duration {
	if e.due.IsZero() {
		return e.done.Sub(e.send)
	}
	return e.done.Sub(e.due)
}

// late is the generator's own delay: send time past the later of the
// due time and the moment the connection came free.
func (e *exchange) late() time.Duration {
	from := e.due
	if e.free.After(from) {
		from = e.free
	}
	return e.send.Sub(from)
}

type sampleResponse struct {
	Seed    uint64  `json:"seed"`
	K       int     `json:"k"`
	Rounds  int     `json:"rounds"`
	Samples [][]int `json:"samples"`
}

func runServeOpen(cfg config, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{E2E: map[string]float64{}, Layers: map[string]float64{}}
	classes, err := serveClasses()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.out, "lserved-"+cfg.workload+".log")
	warm := newStream(cfg.seed, "warmup")

	// Set-up, several times: spawn lserved, register every class, draw
	// once from each. The last server serves the run.
	var (
		srv                       *server
		setups, compiles, warmups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for rep := 0; rep < serveSetupReps; rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.lserved, logPath); err != nil {
			return nil, err
		}
		register, warmup, err := setUp(srv, classes, warm)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add("setup", 0, int64(rep), 0, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		if tr != nil {
			// lserved compiles lazily, on a model's first draw: move the
			// compile time it reports from warm-up to compile.
			e, err := srv.scrape()
			if err != nil {
				return nil, err
			}
			lazy := e.sum("locserved_compile_seconds_sum")
			compiles = append(compiles, register.Seconds()+lazy)
			warmups = append(warmups, warmup.Seconds()-lazy)
		}
	}

	var scrapes []exposition
	scrape := func() error {
		if tr == nil {
			return nil
		}
		e, err := srv.scrape()
		scrapes = append(scrapes, e)
		return err
	}

	if err := scrape(); err != nil {
		return nil, err
	}
	// The generator does not collect garbage while requests are timed:
	// its collections would compete with lserved for the CPUs. It
	// allocates tens of MiB at most.
	gcPercent := debug.SetGCPercent(-1)
	// Each phase dials its connections when it starts: lserved closes a
	// keep-alive connection that sits idle past its header timeout.
	k, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	openSpan := time.Duration((1 - serveSatShare) * cfg.seconds * float64(time.Second))
	open := openLoop(k, classes, schedule(cfg.seed, serveRate, len(classes), openSpan), tr)
	k.close()
	if err := scrape(); err != nil {
		return nil, err
	}
	clients, err := dialAll(srv.addr, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	satSpan := time.Duration(serveSatShare * cfg.seconds * float64(time.Second))
	satEnd := time.Now().Add(satSpan)
	sat := saturate(clients, classes, cfg.seed, satEnd, tr)
	closeAll(clients)
	debug.SetGCPercent(gcPercent)
	if err := scrape(); err != nil {
		return nil, err
	}
	rssKiB := srv.stop()
	srv = nil

	// Latency from the open loop; rates from the saturation phase.
	lat := make([]float64, 0, len(open))
	late := make([]float64, 0, len(open))
	respBytes := 0.0
	count := make([]float64, len(classes))
	for _, e := range open {
		lat = append(lat, float64(e.latency().Nanoseconds())/1e6)
		late = append(late, float64(e.late().Nanoseconds())/1e6)
		respBytes += float64(len(e.body))
		count[e.class]++
	}
	tailV, err := tail(lat, serveTailPct)
	if err != nil {
		return nil, err
	}
	completed, met := 0, 0
	for _, e := range sat {
		if e.err == nil && e.done.Before(satEnd) {
			completed++
			if e.latency() <= serveLimit {
				met++
			}
		}
	}
	res.E2E["setup_s"] = median(setups)
	res.E2E["latency_p50_ms"] = median(lat)
	res.E2E["latency_tail_ms"] = tailV
	res.E2E["max_rate_rps"] = float64(met) / satSpan.Seconds()
	res.E2E["chains_per_s"] = float64(completed) / satSpan.Seconds()
	res.E2E["peak_rss_mb"] = float64(rssKiB) / 1024

	// Every response: status, shape, seed echo, feasibility; a seeded
	// subset also byte for byte against a local draw.
	picks := newStream(cfg.seed, "refcheck")
	for i, e := range append(open, sat...) {
		res.Attempted++
		if err := checkExchange(classes[e.class], e, picks); err != nil {
			res.fail("request %d (%s, seed %d): %v", i, classes[e.class].name, e.seed, err)
		}
	}

	if tr == nil {
		return res, nil
	}
	openD := scrapes[1].delta(scrapes[0])
	whole := scrapes[2].delta(scrapes[0])
	L := res.Layers
	for _, m := range perLayer {
		L[m.name] = 0 // cluster does not run, and lserved exports no Go heap counters
	}
	drawMS := 1000 * ratio(openD.sum("locserved_draw_seconds_sum"), openD.sum("locserved_draw_seconds_count"))
	lateP99, err := tail(late, 99)
	if err != nil {
		return nil, err
	}
	L["loadgen.late_p99_ms"] = lateP99
	L["service.http.self_ms"] = tr.meanMS("http.exchange") - drawMS
	L["service.http.response_kb"] = respBytes / 1024 / float64(len(open))
	L["service.registry.draw_ms"] = drawMS
	hits, misses := whole.sum("locserved_cache_hits_total"), whole.sum("locserved_cache_misses_total")
	L["service.registry.hit_ratio"] = ratio(hits, hits+misses)
	L["service.registry.compiles"] = whole.sum("locserved_compiles_total")
	drawSum := openD.sum("locsample_draw_seconds_sum")
	L["locsample.draw_ms"] = 1000 * ratio(drawSum, openD.sum("locsample_draw_seconds_count"))
	compute := openD.sum("locsample_round_compute_seconds_sum")
	L["locsample.overhead_share"] = 1 - ratio(compute, drawSum)
	L["locsample.soa_share"] = ratio(whole.sum("locserved_soa_chains_total"), whole.sum("locserved_samples_total"))
	updates := map[string]float64{}
	for i, c := range classes {
		updates[c.family] += count[i] * float64(c.rounds*c.n)
	}
	for name, family := range map[string]string{"chains": "mrf", "csp": "csp"} {
		L[name+".ns_per_update"] = ratio(1e9*openD.sum("locsample_round_compute_seconds_sum", "engine", family), updates[family])
		L[name+".flip_ratio"] = ratio(openD.sum("locsample_round_flips_total", "engine", family), updates[family])
	}
	barrier := openD.sum("locsample_round_barrier_seconds_sum")
	L["cluster.barrier_share"] = ratio(barrier, compute+barrier)
	L["core.compile_s"] = median(compiles)
	L["core.warmup_s"] = median(warmups)
	return res, nil
}

// setUp registers every class with a fresh lserved and draws once from
// each, over one connection. It returns the time the register calls and
// the warm-up draws took.
func setUp(srv *server, classes []*serveClass, warm *stream) (register, warmup time.Duration, err error) {
	c, err := dial(srv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	for _, cl := range classes {
		specJSON, err := locsample.EncodeSpec(cl.spec)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		data, err := c.post("/v1/models", specJSON)
		register += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		var reg struct{ ID string }
		if err := json.Unmarshal(data, &reg); err != nil {
			return 0, 0, fmt.Errorf("register %s: %w", cl.name, err)
		}
		cl.id = reg.ID
	}
	for _, cl := range classes {
		t := time.Now()
		data, err := c.post("/v1/models/"+cl.id+"/sample", cl.request(warm.next()))
		warmup += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
		var r sampleResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return 0, 0, fmt.Errorf("warm-up %s: %w", cl.name, err)
		}
		cl.rounds = r.Rounds
	}
	return register, warmup, nil
}

// openLoop replays the schedule over one connection: a sender that
// sleeps to each due time and sends, with no dispatch queue, so the only
// delays between due and send are the wake-up's and the wait for the
// connection's previous exchange. One connection, not one per CPU: on
// a 2-vCPU host two draws in flight at once ran 2-3x their class median
// at p95, against 1.2-1.3x for a lone draw, as the host scheduled the
// two vCPUs; a tail taken over two connections at 150 rps spread 0.29
// (IQR/median) over ten seeds.
func openLoop(k *client, classes []*serveClass, sched []arrival, tr *tracer) []*exchange {
	start := time.Now().Add(20 * time.Millisecond)
	out := make([]*exchange, 0, len(sched))
	free := start
	for _, a := range sched {
		e := &exchange{class: a.class, seed: a.seed, due: start.Add(a.due), free: free}
		waitUntil(e.due)
		cl := classes[a.class]
		e.send = time.Now()
		e.body, e.err = k.post("/v1/models/"+cl.id+"/sample", cl.request(a.seed))
		e.done = time.Now()
		free = e.done
		out = append(out, e)
		if tr != nil {
			root := tr.add("request", 0, int64(a.seed), 0, e.due, e.done)
			tr.add("loadgen.wait", root, int64(a.seed), 0, e.due, e.send)
			tr.add("http.exchange", root, int64(a.seed), 0, e.send, e.done)
		}
	}
	return out
}

// spinLead is how long before a due time a sender stops sleeping and
// spins. The runtime's timers wake up to about a millisecond late on
// Linux (half a millisecond at the median, several at the tail when the
// CPUs are busy), which would count as the server's latency.
const spinLead = 2 * time.Millisecond

// waitUntil sleeps until shortly before t, then spins until t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// saturate runs one closed loop per connection until end: each sends
// its next request as soon as the previous one completes, so no backlog
// can grow. Completions after end are checked but not counted.
func saturate(clients []*client, classes []*serveClass, seed uint64, end time.Time, tr *tracer) []*exchange {
	out := make([][]*exchange, len(clients))
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			k := clients[ci]
			seeds := newStream(seed, "saturation/"+strconv.Itoa(ci))
			for j := ci; time.Now().Before(end); j++ {
				cl := j % len(classes)
				e := &exchange{class: cl, seed: seeds.next()}
				e.send = time.Now()
				e.body, e.err = k.post("/v1/models/"+classes[cl].id+"/sample", classes[cl].request(e.seed))
				e.done = time.Now()
				out[ci] = append(out[ci], e)
				tr.add("request.saturation", 0, int64(e.seed), ci, e.send, e.done)
			}
		}(ci)
	}
	wg.Wait()
	var all []*exchange
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// checkExchange checks one served draw.
func checkExchange(c *serveClass, e *exchange, picks *stream) error {
	// Draw the pick first so the subset does not depend on which
	// responses failed.
	compare := picks.pick(serveRefEvery)
	if e.err != nil {
		return e.err
	}
	var r sampleResponse
	if err := json.Unmarshal(e.body, &r); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if r.K != 1 || len(r.Samples) != 1 || r.Seed != e.seed {
		return fmt.Errorf("response has k=%d, %d samples, seed %d; sent k=1, seed %d", r.K, len(r.Samples), r.Seed, e.seed)
	}
	if err := c.check(r.Samples[0]); err != nil {
		return err
	}
	if !compare {
		return nil
	}
	want, err := c.ref(e.seed)
	if err != nil {
		return fmt.Errorf("reference draw: %w", err)
	}
	if err := checkSame(r.Samples[0], want); err != nil {
		return fmt.Errorf("vs local draw at ChainSeed(seed, 0): %w", err)
	}
	return nil
}
