package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mir"
)

// The standing workload drives live mird daemons, spawned from this tree
// on CSV files the benchmark writes, with a session stream: returning
// users arrive and depart so the population stays within ±2 of its start.
// A run is standRounds rounds, each a fresh daemon on fresh inputs, so
// the figures average over several arrangements. In a round, after an
// untimed warm-up, an open loop sends events at a fixed rate on one
// connection while a second connection polls /stats and reads /coverage;
// then a burst is posted back to back to measure catch-up.
const (
	standProducts = 2000
	standDim      = 3
	standResident = 40
	standPool     = standResident + standResident/4 // 25% offline reserve
	standK        = 10
	standBand     = 2 // population stays within ±standBand of standResident
	standRounds   = 8
	standWarmup   = 60  // untimed events per round
	standRate     = 25  // steady-phase events per second
	standBurst    = 600 // burst events per run, split evenly over the rounds
	// pollInterval is the mean /stats polling period, which bounds how
	// finely a publish can be timed. Each gap is drawn uniformly from half
	// to one and a half times it: on a fixed grid the polls would lock to
	// the 40 ms send grid, every publish would round up to the same poll
	// phase, and a host a little slower would move the median by a whole
	// interval at once.
	pollInterval = 5 * time.Millisecond
	// readEvery makes every readEvery-th poll tick also read /coverage.
	readEvery        = 20
	standCheckPoints = 60
	// overheadWindow alternates tracing on and off during a traced steady
	// phase, so traced and untraced events share one daemon.
	overheadWindow = 500 * time.Millisecond
	// progressTimeout ends a phase whose events stop being applied.
	progressTimeout = 60 * time.Second
)

// event is one step of the session stream: an arrival of pool member
// pool, which the daemon will give handle, or the departure of handle.
type event struct {
	arrive bool
	pool   int
	handle int
}

// sessionStream builds a reproducible stream over a finite user pool:
// arrivals bring back a random offline member, departures retire a
// random online one, and the online count stays within ±band of
// resident, which is also the count online at the start (pool members
// 0..resident-1, handles equal to their pool index).
func sessionStream(rng *rand.Rand, pool, resident, band, steps int) []event {
	online := make([]int, resident)  // pool indices online
	handles := make([]int, resident) // their daemon handles, parallel
	for i := range online {
		online[i], handles[i] = i, i
	}
	var offline []int
	for i := resident; i < pool; i++ {
		offline = append(offline, i)
	}
	next := resident
	out := make([]event, 0, steps)
	for len(out) < steps {
		arrive := rng.Intn(2) == 0
		if len(offline) == 0 || len(online) >= resident+band {
			arrive = false
		} else if len(online) <= resident-band {
			arrive = true
		}
		if arrive {
			j := rng.Intn(len(offline))
			p := offline[j]
			offline = append(offline[:j], offline[j+1:]...)
			out = append(out, event{arrive: true, pool: p, handle: next})
			online = append(online, p)
			handles = append(handles, next)
			next++
		} else {
			i := rng.Intn(len(online))
			out = append(out, event{pool: online[i], handle: handles[i]})
			offline = append(offline, online[i])
			online = append(online[:i], online[i+1:]...)
			handles = append(handles[:i], handles[i+1:]...)
		}
	}
	return out
}

// onlineAfter returns the pool indices online after the stream.
func onlineAfter(resident int, events []event) []int {
	on := make(map[int]bool)
	for i := 0; i < resident; i++ {
		on[i] = true
	}
	for _, e := range events {
		on[e.pool] = e.arrive
	}
	var out []int
	for p, ok := range on {
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// poll is one /stats sample, stamped when its response arrived.
type poll struct {
	at              time.Time
	Epoch           uint64  `json:"epoch"`
	Applied         int     `json:"applied"`
	QueueLen        int     `json:"queueLen"`
	Cells           int     `json:"cells"`
	LastDrainSize   int     `json:"lastDrainSize"`
	LastDrainSecond float64 `json:"lastDrainSeconds"`
	RoutedLeaves    int     `json:"routedLeaves"`
	SkippedSubtrees int     `json:"skippedSubtrees"`
	TouchedFrontier int     `json:"touchedFrontier"`
}

// firstPublished returns, for each event i of a stream whose first event
// is applied event number base+1, the index of the first poll whose
// applied count includes it, or -1 if no poll does. Polls are in time
// order and applied never decreases, so one forward scan suffices.
func firstPublished(base, n int, polls []poll) []int {
	out := make([]int, n)
	j := 0
	for i := 0; i < n; i++ {
		for j < len(polls) && polls[j].Applied < base+i+1 {
			j++
		}
		if j == len(polls) {
			out[i] = -1
		} else {
			out[i] = j
		}
	}
	return out
}

// daemon is one running mird process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startMird spawns mird and waits for its first 200 from /stats,
// returning the elapsed time as the set-up time.
func startMird(bin, dir string, args []string) (*daemon, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "mird.log"))
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{}), log: logf}
	d.cmd = exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	client := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start mird: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			d.log.Close()
			return nil, 0, fmt.Errorf("mird exited before serving: %s", tailOfFile(logf.Name()))
		default:
		}
		resp, err := client.Get(d.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("mird did not serve /stats within 60s")
}

// stop asks mird to drain and exit, kills it if it does not, and waits
// until the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func tailOfFile(path string) string {
	b, _ := os.ReadFile(path) // best effort: only decorates an error message
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = s[len(s)-400:]
	}
	return s
}

// osThreads returns this process's OS thread count, or -1 where /proc
// does not report it.
func osThreads() int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "Threads:" {
			if n, err := strconv.Atoi(f[1]); err == nil {
				return n
			}
		}
	}
	return -1
}

// conn is one keep-alive HTTP connection to the daemon.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and decodes a JSON body into out when non-nil.
func (c *conn) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (c *conn) stats() (poll, error) {
	var p poll
	code, err := c.do("GET", "/stats", nil, &p)
	p.at = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/stats: status %d", code)
	}
	return p, err
}

// sent is the record of one event's delivery.
type sent struct {
	due, start, ack time.Time
	status          int
}

// standingRun carries one run's state.
type standingRun struct {
	res   *result
	pool  []mir.User
	trace *tracer
	t0    time.Time  // steady-phase start, for the tracing windows
	jit   *rand.Rand // poll gaps; used by the poller only

	// Traced runs only: each daemon's start-up build, replayed in-process.
	meter    *mirMeter
	setupTot setupTotals
}

// tracing reports whether live spans are recorded at time t: in a traced
// run, during every other overheadWindow of the steady phase.
func (w *standingRun) tracing(t time.Time) bool {
	return w.trace != nil && !w.t0.IsZero() && (t.Sub(w.t0)/overheadWindow)%2 == 1
}

// send delivers event e and returns the status code; the handle an
// arrival receives must be the one the stream predicted.
func (w *standingRun) send(c *conn, e event) (int, error) {
	if !e.arrive {
		return c.do("DELETE", fmt.Sprintf("/users/%d", e.handle), nil, nil)
	}
	u := w.pool[e.pool]
	body, err := json.Marshal(map[string]any{"weights": u.Weights, "k": u.K})
	if err != nil {
		return 0, err
	}
	var got struct {
		Handle int `json:"handle"`
	}
	code, err := c.do("POST", "/users", body, &got)
	if err == nil && code == http.StatusAccepted && got.Handle != e.handle {
		err = fmt.Errorf("arrival got handle %d, stream predicted %d", got.Handle, e.handle)
	}
	return code, err
}

// sendAll delivers events on c at the given due times (zero time: back
// to back) and returns one record per event.
func (w *standingRun) sendAll(c *conn, events []event, due func(i int) time.Time) []sent {
	out := make([]sent, len(events))
	for i, e := range events {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		start := time.Now()
		if d.IsZero() {
			d = start
		}
		id := 0
		if w.tracing(start) {
			name := "http.DELETE /users"
			if e.arrive {
				name = "http.POST /users"
			}
			id = w.trace.begin(name, 0, i)
		}
		code, err := w.send(c, e)
		w.trace.end(id)
		if err != nil && code == 0 {
			code = -1
		} else if err != nil {
			code = -2 // accepted but wrong handle: counts as failed
		}
		out[i] = sent{due: d, start: start, ack: time.Now(), status: code}
	}
	return out
}

// pollUntil polls /stats every pollInterval on average, reading /coverage every
// readEvery-th tick when reads is set, until done reports true for the
// latest poll after the sender has finished. It gives up when the applied
// count stops moving for progressTimeout.
func (w *standingRun) pollUntil(c *conn, senderDone <-chan struct{}, done func(poll) bool,
	reads bool, points [][]float64, readLat *[]float64, readFail *int) ([]poll, error) {
	var polls []poll
	finished := false
	next := time.Now()
	lastApplied, lastProgress := -1, time.Now()
	for tick := 0; ; tick++ {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		next = next.Add(pollInterval/2 + time.Duration(w.jit.Int63n(int64(pollInterval))))
		t := time.Now()
		id := 0
		if w.tracing(t) {
			id = w.trace.begin("http.GET /stats", 0, tick)
		}
		p, err := c.stats()
		w.trace.end(id)
		if err != nil {
			return polls, err
		}
		polls = append(polls, p)
		if p.Applied != lastApplied {
			lastApplied, lastProgress = p.Applied, p.at
		} else if p.at.Sub(lastProgress) > progressTimeout {
			return polls, errors.New("daemon stopped applying events")
		}
		if !finished {
			select {
			case <-senderDone:
				finished = true
			default:
			}
		}
		if finished && done(p) {
			return polls, nil
		}
		if reads && tick%readEvery == 0 {
			pt := points[(tick/readEvery)%len(points)]
			t1 := time.Now()
			if w.tracing(t1) {
				id = w.trace.begin("http.GET /coverage", 0, tick)
			}
			code, err := c.do("GET", "/coverage?point="+pointParam(pt), nil, nil)
			w.trace.end(id)
			*readLat = append(*readLat, since(t1))
			if err != nil || code != http.StatusOK {
				*readFail++
			}
		}
	}
}

func pointParam(p []float64) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// phase sends events (at due times, or back to back) on one connection
// while the other polls until every accepted event is published.
func (w *standingRun) phase(send, recv *conn, events []event, due func(int) time.Time, base int,
	reads bool, points [][]float64, readLat *[]float64, readFail *int) ([]sent, []poll, error) {
	var sends []sent
	accepted := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		sends = w.sendAll(send, events, due)
		for _, s := range sends {
			if s.status == http.StatusAccepted {
				accepted++
			}
		}
	}()
	// done is consulted only after the sender's channel closed, so
	// accepted is final by then.
	polls, err := w.pollUntil(recv, done, func(p poll) bool { return p.Applied >= base+accepted },
		reads, points, readLat, readFail)
	wg.Wait()
	return sends, polls, err
}

// publishTimes maps each accepted event to the first poll that shows it
// applied: the j-th accepted event is applied event number base+j+1.
// Refused events, and events no poll shows, get -1.
func publishTimes(sends []sent, base int, polls []poll) []int {
	var accepted []int
	for i, s := range sends {
		if s.status == http.StatusAccepted {
			accepted = append(accepted, i)
		}
	}
	out := make([]int, len(sends))
	for i := range out {
		out[i] = -1
	}
	for j, p := range firstPublished(base, len(accepted), polls) {
		out[accepted[j]] = p
	}
	return out
}

// roundOut is what one daemon round measured.
type roundOut struct {
	setup          float64
	publish        []float64 // seconds, steady phase
	publishTraced  []float64 // the subset due in traced windows
	publishPlain   []float64 // the subset due in untraced windows
	reads, accepts []float64 // seconds, steady phase
	burstEvents    int
	burstSeconds   float64
	rss            float64
	maxLate        time.Duration
	rejected       int
	first, last    poll // /stats at the start and end of the steady phase
	depth, drainS  []float64
	burstDepth     float64
	finalCells     int
}

func runStanding(cfg config) (*result, error) {
	if cfg.mird == "" {
		return nil, errors.New("the standing workload needs -mird")
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("standing-%d", cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &standingRun{res: &result{}, jit: rand.New(rand.NewSource(subSeed(cfg.seed, 3)))}
	if cfg.trace {
		w.trace = newTracer()
		w.res.spans = w.trace
		w.meter = newMirMeter()
	}
	r := w.res
	steady := max(20, standRate*cfg.seconds/standRounds)
	var rounds []roundOut
	for i := 0; i < standRounds; i++ {
		out, err := w.round(cfg, dir, i, steady)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, out)
	}

	var setups, publish, reads, accepts, rss, cells, depth, drainS, pubTraced, pubPlain []float64
	var burstSeconds, steadySeconds, burstDepth float64
	var burstEvents, rejected int
	var maxLate time.Duration
	var dApplied, dEpoch, dRouted, dSkipped, dFrontier float64
	for _, o := range rounds {
		setups = append(setups, o.setup)
		publish = append(publish, o.publish...)
		pubTraced = append(pubTraced, o.publishTraced...)
		pubPlain = append(pubPlain, o.publishPlain...)
		reads = append(reads, o.reads...)
		accepts = append(accepts, o.accepts...)
		rss = append(rss, o.rss)
		cells = append(cells, float64(o.finalCells))
		depth = append(depth, o.depth...)
		drainS = append(drainS, o.drainS...)
		burstEvents += o.burstEvents
		burstSeconds += o.burstSeconds
		burstDepth = max(burstDepth, o.burstDepth)
		rejected += o.rejected
		maxLate = max(maxLate, o.maxLate)
		steadySeconds += o.last.at.Sub(o.first.at).Seconds()
		dApplied += float64(o.last.Applied - o.first.Applied)
		dEpoch += float64(o.last.Epoch - o.first.Epoch)
		dRouted += float64(o.last.RoutedLeaves - o.first.RoutedLeaves)
		dSkipped += float64(o.last.SkippedSubtrees - o.first.SkippedSubtrees)
		dFrontier += float64(o.last.TouchedFrontier - o.first.TouchedFrontier)
	}

	r.note("rounds", "%d daemons in turn, each on fresh inputs: %d warm-up, %d steady, %d burst events",
		standRounds, standWarmup, steady, standBurst/standRounds)
	r.note("generator", "open loop %d events/s, max lateness %.3f ms", standRate, maxLate.Seconds()*1e3)
	r.note("load", "1 process, 2 goroutines (sender, poller) on %d OS threads, 2 connections, gomaxprocs %d",
		osThreads(), runtime.GOMAXPROCS(0))
	r.note("poll_interval_ms", "%g mean, each gap uniform in [%g, %g) (bounds publish-time resolution); /coverage read every %d polls",
		pollInterval.Seconds()*1e3, pollInterval.Seconds()*1e3/2, pollInterval.Seconds()*1e3*3/2, readEvery)
	r.note("inputs", "IND |P|=%d d=%d, %d resident UN users of a %d pool, k=%d, m=%d",
		standProducts, standDim, standResident, standPool, standK, standResident/2)
	r.e2e("setup_s", "s", median(setups), len(setups))
	r.e2e("op_ms_p50", "ms", median(publish)*1e3, len(publish))
	r.e2e("read_ms_p50", "ms", median(reads)*1e3, len(reads))
	r.e2e("peak_rss_mb", "MiB", median(rss), len(rss))
	// Catch-up has no counterpart in the other workloads, and the tails
	// spread across seeds past any bound the benchmark may set on a
	// shared 2-vCPU host, so these are printed but not gated.
	r.reportOnly = append(r.reportOnly,
		metric{Name: "catchup_events_per_s", Value: float64(burstEvents) / burstSeconds, Unit: "events/s", N: burstEvents},
		tailMetric("op_ms_tail", "ms", publish, 1e3),
		tailMetric("read_ms_tail", "ms", reads, 1e3))

	if cfg.trace {
		w.setupTot.report(r)
		w.meter.report(r)
		r.layer("trace.overhead_share", "ratio", median(pubTraced)/median(pubPlain)-1, len(pubTraced))
		// Daemon-side figures from HTTP timings and /stats deltas over the
		// steady phases (depth_max over the bursts). Only this workload
		// runs a daemon, so they are printed but left out of the result
		// line.
		r.extra("mird.accept_ms_p50", "ms", median(accepts)*1e3, len(accepts))
		r.extra("eventq.depth_mean", "count", mean(depth), len(depth))
		r.extra("eventq.depth_max", "count", burstDepth, standRounds)
		r.extra("mird.drain_size_mean", "count", dApplied/dEpoch, int(dEpoch))
		r.extra("mird.drain_s_mean", "s", mean(drainS), len(drainS))
		r.extra("mird.writer_busy_share", "ratio", mean(drainS)*dEpoch/steadySeconds, len(drainS))
		r.extra("mird.rejected", "count", float64(rejected), standRounds*(standWarmup+steady)+standBurst)
		r.extra("core.routed_leaves_per_event", "count", dRouted/dApplied, int(dApplied))
		r.extra("core.skipped_subtrees_per_event", "count", dSkipped/dApplied, int(dApplied))
		r.extra("core.frontier_per_event", "count", dFrontier/dApplied, int(dApplied))
		r.extra("celltree.cells", "count", median(cells), len(cells))
		if err := w.trace.write(filepath.Join(cfg.out, fmt.Sprintf("spans-standing-%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// round spawns one daemon on fresh inputs and runs the warm-up, steady
// and burst phases against it, then checks its answers and stops it.
func (w *standingRun) round(cfg config, dir string, round, steady int) (roundOut, error) {
	r := w.res
	var o roundOut

	// Inputs: written as CSV for the daemon and read back, so the oracle
	// sees exactly the values the daemon parsed.
	pf, uf := filepath.Join(dir, "products.csv"), filepath.Join(dir, "users.csv")
	pool := mir.SynthUsers(mir.Uniform, standPool, standDim, standK, subSeed(cfg.seed, int64(round), 1))
	if err := mir.SaveProductsCSV(pf, mir.SynthProducts(mir.Independent, standProducts, standDim, subSeed(cfg.seed, int64(round), 0))); err != nil {
		return o, err
	}
	if err := mir.SaveUsersCSV(uf, pool[:standResident]); err != nil {
		return o, err
	}
	products, err := mir.LoadProductsCSV(pf)
	if err != nil {
		return o, err
	}
	w.pool = pool
	m := standResident / 2 // mird's default m
	if w.trace != nil {
		if err := w.replayStartup(pf, uf, products, m, round); err != nil {
			return o, err
		}
	}
	burst := standBurst / standRounds
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, int64(round), 2)))
	events := sessionStream(rng, standPool, standResident, standBand, standWarmup+steady+burst)
	readPts := make([][]float64, 64)
	for i := range readPts {
		readPts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}

	d, setup, err := startMird(cfg.mird, dir, []string{"-products", pf, "-users", uf})
	if !r.check(err == nil) {
		return o, err
	}
	defer d.stop()
	o.setup = setup
	sendC, recvC := newConn(d.base), newConn(d.base)
	defer sendC.close()
	defer recvC.close()
	backToBack := func(int) time.Time { return time.Time{} }

	// Warm-up to steady state, untimed.
	warm, _, err := w.phase(sendC, recvC, events[:standWarmup], backToBack, 0, false, nil, nil, nil)
	if err != nil {
		return o, fmt.Errorf("warm-up: %w", err)
	}
	o.first, err = recvC.stats()
	if err != nil {
		return o, err
	}

	// Steady phase: open loop at standRate.
	readFail := 0
	w.t0 = time.Now().Add(50 * time.Millisecond)
	start := w.t0
	gap := time.Second / standRate
	sends, polls, err := w.phase(sendC, recvC, events[standWarmup:standWarmup+steady],
		func(i int) time.Time { return start.Add(time.Duration(i) * gap) },
		o.first.Applied, true, readPts, &o.reads, &readFail)
	w.t0 = time.Time{} // live tracing covers the steady phase only
	if err != nil {
		return o, fmt.Errorf("steady phase: %w", err)
	}
	o.last = polls[len(polls)-1]
	pub := publishTimes(sends, o.first.Applied, polls)
	for i, s := range sends {
		r.check(s.status == http.StatusAccepted && pub[i] >= 0)
		o.maxLate = max(o.maxLate, s.start.Sub(s.due))
		o.accepts = append(o.accepts, s.ack.Sub(s.start).Seconds())
		if pub[i] < 0 {
			continue
		}
		at := polls[pub[i]].at
		lat := at.Sub(s.due).Seconds()
		o.publish = append(o.publish, lat)
		if w.trace != nil {
			pid := w.trace.add("standing.publish", 0, i, s.due, at)
			w.trace.add("mird.accept", pid, i, s.start, s.ack)
			if (s.due.Sub(start)/overheadWindow)%2 == 1 {
				o.publishTraced = append(o.publishTraced, lat)
			} else {
				o.publishPlain = append(o.publishPlain, lat)
			}
		}
	}
	for range o.reads {
		r.check(true)
	}
	r.failed += readFail
	seen := map[uint64]bool{}
	for _, p := range polls {
		o.depth = append(o.depth, float64(p.QueueLen))
		if p.Epoch > o.first.Epoch && !seen[p.Epoch] {
			seen[p.Epoch] = true
			o.drainS = append(o.drainS, p.LastDrainSecond)
		}
	}

	// Catch-up: the burst, back to back.
	burstStart := time.Now()
	burstSends, burstPolls, err := w.phase(sendC, recvC, events[standWarmup+steady:], backToBack, o.last.Applied, false, nil, nil, nil)
	if err != nil {
		return o, fmt.Errorf("burst: %w", err)
	}
	for _, s := range burstSends {
		r.check(s.status == http.StatusAccepted)
	}
	final := burstPolls[len(burstPolls)-1]
	o.burstEvents = len(burstSends)
	o.burstSeconds = final.at.Sub(burstStart).Seconds()
	for _, p := range burstPolls {
		o.burstDepth = max(o.burstDepth, float64(p.QueueLen))
	}
	o.finalCells = final.Cells
	for _, s := range append(append(warm, sends...), burstSends...) {
		if s.status == http.StatusTooManyRequests {
			o.rejected++
		}
	}

	// Final check: /coverage against a brute-force recount over the
	// population left after the stream.
	var users []mir.User
	for _, p := range onlineAfter(standResident, events) {
		users = append(users, pool[p])
	}
	oc := newOracle(products, users)
	checked := 0
	for i := 0; i < standCheckPoints; i++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%2 == 1 { // the high corner, where coverage reaches m
			for j := range p {
				p[j] = 1 - 0.3*p[j]
			}
		}
		want, gapv := oc.coverage(p)
		if gapv < boundaryTol {
			continue
		}
		checked++
		var got struct {
			Coverage int  `json:"coverage"`
			InRegion bool `json:"inRegion"`
		}
		code, err := recvC.do("GET", "/coverage?point="+pointParam(p), nil, &got)
		r.check(err == nil && code == http.StatusOK && got.Coverage == want && got.InRegion == (want >= m))
	}
	r.check(checked > 0 && final.Applied == len(events))

	o.rss, err = peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	return o, err
}

// replayStartup repeats, in this process and before the daemon starts, the
// build mird makes at start-up from the same CSV files: the traced core
// set-up beside it, then the root-API NewMonitor call under the meter. The
// daemon's own layers are out of reach of the benchmark's spans, so this is
// how a traced standing run reports the set-up layers.
func (w *standingRun) replayStartup(pf, uf string, products [][]float64, m, round int) error {
	users, err := mir.LoadUsersCSV(uf)
	if err != nil {
		return err
	}
	root := w.trace.begin("standing.startup_replay", 0, round)
	defer w.trace.end(root)
	if _, err := traceSetup(w.trace, root, round, products, users, &w.setupTot); err != nil {
		return err
	}
	w.meter.measure(func() {
		id := w.trace.begin("mir.NewMonitor", root, round)
		_, err = mir.NewMonitor(products, users, m)
		w.trace.end(id)
	})
	if !w.res.check(err == nil) {
		return fmt.Errorf("NewMonitor(%s): %w", pf, err)
	}
	return nil
}
