package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/qbo"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

// serverCandidates is qfe-server's default -candidates cap; the in-process
// QBO check and timing use the same cap.
const serverCandidates = 32

// stack is the set of server processes of one load workload.
type stack struct {
	router  *proc
	workers []*proc
	dirs    []string  // each worker's WAL and snapshot directory
	idleKB  []float64 // VmRSS of each process at "listening on"
	flags   map[string][]string
}

func (s *stack) procs() []*proc {
	if s.router == nil {
		return s.workers
	}
	return append([]*proc{s.router}, s.workers...)
}

func (s *stack) front() string {
	if s.router != nil {
		return s.router.url()
	}
	return s.workers[0].url()
}

func (s *stack) stop() {
	for _, p := range s.procs() {
		_ = p.stop(syscall.SIGKILL)
	}
}

func logFormat(traced bool) string {
	if traced {
		return "json"
	}
	return "text"
}

// serverArgs are qfe-server's flags for a node whose state lives in dir.
// -checkpoint 0 keeps the periodic snapshot timer out of measured phases;
// the WAL flush policy stays at its default, always.
func serverArgs(dir string, traced bool) []string {
	return []string{"-addr", "127.0.0.1:0",
		"-wal", filepath.Join(dir, "wal"), "-state", filepath.Join(dir, "state.json"),
		"-checkpoint", "0", "-log-format", logFormat(traced)}
}

// startStack launches n WAL-backed workers and, when routed, a qfe-router
// in front of them.
func startStack(e *env, name string, n int, routed, traced bool) (*stack, error) {
	s := &stack{flags: map[string][]string{}}
	var workerFlags []string
	for i := 0; i < n; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("%s-w%d", name, i))
		if err := os.RemoveAll(dir); err != nil { // an earlier set-up's state
			s.stop()
			return nil, err
		}
		args := serverArgs(dir, traced)
		p, err := startProc(fmt.Sprintf("worker %d", i), filepath.Join(e.bin, "qfe-server"), args, traced)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, p)
		s.dirs = append(s.dirs, dir)
		s.flags["qfe-server"] = args
		workerFlags = append(workerFlags, "-worker", fmt.Sprintf("id=w%d,url=%s", i, p.url()))
	}
	if routed {
		args := append([]string{"-addr", "127.0.0.1:0", "-log-format", logFormat(traced)}, workerFlags...)
		p, err := startProc("router", filepath.Join(e.bin, "qfe-router"), args, traced)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.router = p
		s.flags["qfe-router"] = args
	}
	for _, p := range s.procs() {
		kb, err := p.statusKB("VmRSS")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.idleKB = append(s.idleKB, kb)
	}
	return s, nil
}

// phase is one measured pass of users through a stack.
type phase struct {
	wall      time.Duration
	recs      []*record
	smp       *samples
	before    []scrape // per process, stack order
	after     []scrape
	cpu       time.Duration // server CPU during the phase
	clientCPU time.Duration
	hwmKB     []float64
	logs      [][][]byte // per process, traced runs only
}

// runPhase drives users through s with two closed-loop clients. Traced
// phases also scrape every process before and after and keep their logs.
func runPhase(s *stack, users []*user, traced bool) (*phase, error) {
	ph := &phase{smp: &samples{}}
	hc := &http.Client{Timeout: 30 * time.Second}
	procs := s.procs()
	if traced {
		for _, p := range procs {
			p.takeLogs() // start-up and warm-up lines
			sc, err := p.scrapeMetrics(hc)
			if err != nil {
				return nil, err
			}
			ph.before = append(ph.before, sc)
		}
	}
	// Flush dirty pages left by set-up (binaries, earlier WAL files) so the
	// phase's fsyncs do not queue behind them.
	syscall.Sync()
	cpu0, err := serverCPU(procs)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	clients := []*client{newClient(s.front(), "c0", ph.smp), newClient(s.front(), "c1", ph.smp)}
	t0 := time.Now()
	ph.recs = runUsers(clients, users)
	ph.wall = time.Since(t0)
	ph.clientCPU = selfCPU() - self0
	for _, c := range clients {
		c.close()
	}
	cpu1, err := serverCPU(procs)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	for _, p := range procs {
		kb, err := p.statusKB("VmHWM")
		if err != nil {
			return nil, err
		}
		ph.hwmKB = append(ph.hwmKB, kb)
		if traced {
			sc, err := p.scrapeMetrics(hc)
			if err != nil {
				return nil, err
			}
			ph.after = append(ph.after, sc)
			ph.logs = append(ph.logs, p.takeLogs())
		}
	}
	return ph, nil
}

func serverCPU(ps []*proc) (time.Duration, error) {
	var t time.Duration
	for _, p := range ps {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		t += c
	}
	return t, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---- interactive -----------------------------------------------------------

// generatedUsers builds n target-policy users over unique generated
// scenarios, with codec-JSON create bodies.
func generatedUsers(seed int64, n int, readEach bool) ([]*user, error) {
	scs, err := scenario.GenerateCorpus(seed, n, scenario.DefaultGenOptions())
	if err != nil {
		return nil, err
	}
	users := make([]*user, len(scs))
	for i, sc := range scs {
		cd := codec.EncodeDatabase(sc.DB)
		r := codec.EncodeRelation(sc.R)
		body, err := json.Marshal(service.CreateRequest{Tables: cd.Tables, Result: &r,
			PrimaryKeys: cd.PrimaryKeys, ForeignKeys: cd.ForeignKeys})
		if err != nil {
			return nil, err
		}
		users[i] = &user{key: sc.Name, createBody: body, d: sc.DB, r: sc.R,
			target: sc.Target, maxRounds: -1, readEach: readEach}
	}
	return users, nil
}

// interactiveInputs: unique generated scenarios, each user reading its
// session once per round; the warm-up is other scenarios of the same kind.
func interactiveInputs(e *env) (users, warm []*user, err error) {
	if users, err = generatedUsers(mix(e.seed, 1), e.size.sessions, true); err != nil {
		return nil, nil, err
	}
	warm, err = generatedUsers(mix(e.seed, 2), e.size.warmup, true)
	return users, warm, err
}

// ---- shared-large ----------------------------------------------------------

// studyQuery is one of the paper's nine study queries.
type studyQuery struct {
	dataset string
	q       *algebra.Query
}

// studyUsers returns one user per study query, in paper order, sharing
// each dataset's database. Each user closes its session once it has its
// outcome: a finished study session keeps its own copy of its dataset
// (about 28 MB), so resident sessions would cap the passes by memory.
func studyUsers() ([]*user, error) {
	sci, bb, ad := datasets.NewScientific(), datasets.NewBaseball(), datasets.NewAdult()
	var qs []studyQuery
	for _, q := range []*algebra.Query{sci.Q1, sci.Q2} {
		qs = append(qs, studyQuery{"scientific", q})
	}
	for _, q := range []*algebra.Query{bb.Q3, bb.Q4, bb.Q5, bb.Q6} {
		qs = append(qs, studyQuery{"baseball", q})
	}
	for _, q := range ad.Targets {
		qs = append(qs, studyQuery{"adult", q})
	}
	dbs := map[string]*db.Database{"scientific": sci.DB, "baseball": bb.DB, "adult": ad.DB}
	var users []*user
	for _, sq := range qs {
		d := dbs[sq.dataset]
		r, err := sq.q.Evaluate(d)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.CreateRequest{Dataset: sq.dataset, Target: sq.q.Name})
		if err != nil {
			return nil, err
		}
		users = append(users, &user{key: sq.dataset + "/" + sq.q.Name, createBody: body,
			d: d, r: r, target: sq.q, maxRounds: -1, closeDone: true})
	}
	return users, nil
}

// sharedOrder interleaves the datasets within a pass (indexes into the
// paper-order study list), so consecutive users rarely share a dataset.
var sharedOrder = []int{0, 2, 6, 1, 3, 7, 4, 8, 5}

// interleave returns passes copies of the nine study users in the fixed
// interleaved order. The study is the paper's, so the order is the only
// input choice, and it is fixed: a seeded order would move which sessions
// overlap the 4-second baseball/Q4 create and so the tail, run to run.
func interleave(study []*user, passes int) []*user {
	var out []*user
	for p := 0; p < passes; p++ {
		for _, i := range sharedOrder {
			out = append(out, study[i])
		}
	}
	return out
}

// sharedInputs: passes of the nine study queries; the warm-up is the
// first study query of each dataset, so each dataset's first load happens
// before the measured phase.
func sharedInputs(e *env) (users, warm []*user, err error) {
	study, err := studyUsers()
	if err != nil {
		return nil, nil, err
	}
	return interleave(study, e.size.passes), []*user{study[0], study[2], study[6]}, nil
}

// load is a workload of sessions driven through a stack of servers.
type load struct {
	name    string
	workers int
	routed  bool
	tail    float64 // the round and create tail percentile it reports
	// gateTail is the round percentile behind op_tail_ms. shared-large's
	// p90 (19 of its 196 rounds beyond, at --seconds 25) spread 6-23% of
	// its median over three sets of runs, next to op_tail_ms's 25% bound,
	// and its p75 10-13%; it gates on p75 and still reports p90.
	gateTail float64
	inputs   func(*env) (users, warm []*user, err error)
}

// run sets the workload up e.setups times (input generation, servers up to
// "listening on", warm-up pass), measures one phase on the last set-up,
// checks every output, and computes the metrics.
func (l load) run(e *env, traced bool) (*result, error) {
	var users []*user
	var s *stack
	var setups []float64
	for i := 0; i < e.setups; i++ {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var warm []*user
		var err error
		if users, warm, err = l.inputs(e); err != nil {
			return nil, err
		}
		if s, err = startStack(e, l.name, l.workers, l.routed, traced); err != nil {
			return nil, err
		}
		if _, err := runPhase(s, warm, false); err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	defer s.stop()
	ph, err := runPhase(s, users, traced)
	if err != nil {
		return nil, err
	}
	res := &result{flags: s.flags}
	c := checkLoad(res, ph, traced)
	loadMetrics(res, ph, c, median(setups), l.tail, l.gateTail, s)
	if traced {
		if err := layerMetrics(res, s, ph, c); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---- checks and metrics shared by the load workloads -----------------------

// checked is what the output checks established about a phase.
type checked struct {
	completed    int
	rounds       int // Σ outcome rounds over completed sessions
	modcost      int
	creates      int
	refused      int
	candidates   int           // Σ |QC| the server reported over accepted creates
	notFound     int           // completed sessions whose target is verifiably outside QC
	dprimeChecks int           // query-on-D′ agreements checked against the target
	findings     int           // merged candidates a shown D′ distinguishes
	qboTime      time.Duration // Σ in-process QBO time over all creates (traced runs)
}

// qboRun times QBO in process on one (D, R), with the server's cap.
func qboRun(u *user) ([]*algebra.Query, time.Duration, error) {
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = serverCandidates
	t0 := time.Now()
	qc, err := qbo.Generate(u.d, u.r, cfg)
	return qc, time.Since(t0), err
}

// checkLoad runs the output checks over a phase's sessions:
//   - every session that was not refused finished;
//   - a finished session's outcome agrees with its user's answers (see
//     checkOutcome): a found query returns R on D and the target's result
//     on every D′ that showed it; a not-found outcome leaves no QBO
//     candidate that agrees with the target on every D′ (merged
//     candidates a shown D′ distinguishes are findings, not violations);
//   - a refused create's (D, R) has no QBO candidate in process either, and
//     (traced runs) an accepted create's candidate count matches QBO's.
//
// Traced runs time QBO once per distinct input and charge it to every
// create of that input.
func checkLoad(res *result, ph *phase, traced bool) checked {
	var c checked
	type qboOut struct {
		qc  []*algebra.Query
		d   time.Duration
		err error
	}
	qboCache := map[string]qboOut{}
	memo := map[string]bool{}
	qboOf := func(u *user) qboOut {
		o, ok := qboCache[u.key]
		if !ok {
			o.qc, o.d, o.err = qboRun(u)
			qboCache[u.key] = o
		}
		return o
	}
	for _, r := range ph.recs {
		res.t.add(r.t)
		c.creates++
		if r.err != nil {
			res.violation("session %s: %v", r.u.key, r.err)
			continue
		}
		if r.refused || traced {
			o := qboOf(r.u)
			c.qboTime += o.d
			switch {
			case o.err != nil:
				res.violation("session %s: in-process QBO: %v", r.u.key, o.err)
			case r.refused && len(o.qc) != 0:
				res.t.wrong++
				res.violation("session %s: refused, but QBO finds %d candidates", r.u.key, len(o.qc))
			case !r.refused && len(o.qc) != r.candidates:
				res.t.wrong++
				res.violation("session %s: server reports %d candidates, QBO %d", r.u.key, r.candidates, len(o.qc))
			}
		}
		if r.refused {
			c.refused++
			continue
		}
		c.candidates += r.candidates
		if !r.done {
			res.t.wrong++
			res.violation("session %s: not finished", r.u.key)
			continue
		}
		oc, err := checkOutcome(r, func() ([]*algebra.Query, error) {
			o := qboOf(r.u)
			return o.qc, o.err
		}, memo)
		c.dprimeChecks += oc.dprime
		c.findings += len(oc.findings)
		for _, f := range oc.findings {
			res.finding("session %s: %s", r.u.key, f)
		}
		if err != nil {
			res.t.wrong++
			res.violation("session %s: %v", r.u.key, err)
			continue
		}
		if !r.outcome.Found {
			c.notFound++
		}
		c.completed++
		c.rounds += r.outcome.Rounds
		c.modcost += r.outcome.TotalModCost
	}
	return c
}

// loadMetrics fills the end-to-end metrics of interactive and shared-large.
func loadMetrics(res *result, ph *phase, c checked, setup, tail, gateTail float64, s *stack) {
	smp := ph.smp
	tailName := func(op string, p float64) string { return fmt.Sprintf("%s_p%02.0f_ms", op, p*100) }
	ct := tailPercentile(len(smp.create), tail)
	rt := tailPercentile(len(smp.round), tail)
	var hwm float64
	for _, kb := range ph.hwmKB {
		hwm += kb
	}
	sps := ratio(float64(c.completed), ph.wall.Seconds())
	rps := ratio(float64(c.rounds), float64(c.completed))
	mps := ratio(float64(c.modcost), float64(c.completed))

	res.add("create_p50_ms", percentile(smp.create, 0.5), "ms")
	if ct > 0.5 {
		res.add(tailName("create", ct), percentile(smp.create, ct), "ms")
	}
	res.add("round_p50_ms", percentile(smp.round, 0.5), "ms")
	if rt > 0.5 {
		res.add(tailName("round", rt), percentile(smp.round, rt), "ms")
	}
	if s.router != nil {
		res.add("read_p50_ms", percentile(smp.read, 0.5), "ms")
	}
	res.add("sessions_per_s", sps, "1/s")
	res.add("fail_ratio", res.t.failRatio(), "ratio")
	res.add("rounds_per_session", rps, "count")
	res.add("modcost_per_session", mps, "count")
	res.add("peak_rss_mb", hwm/1024, "MB")
	res.add("setup_s", setup, "s")
	res.notes = append(res.notes,
		fmt.Sprintf("samples creates=%d rounds=%d reads=%d sessions=%d completed=%d refused=%d wall_s=%.3f",
			len(smp.create), len(smp.round), len(smp.read), c.creates, c.completed, c.refused, ph.wall.Seconds()),
		fmt.Sprintf("checks not_found=%d dprime_agreements=%d merge_findings=%d",
			c.notFound, c.dprimeChecks, c.findings))
	res.e2e = []metric{
		{"op_p50_ms", percentile(smp.round, 0.5), "ms"},
		{"op_tail_ms", percentile(smp.round, tailPercentile(len(smp.round), gateTail)), "ms"},
		{"sessions_per_s", sps, "1/s"},
		{"peak_rss_mb", hwm / 1024, "MB"},
		{"setup_s", setup, "s"},
		{"rounds_per_session", rps, "count"},
		{"modcost_per_session", mps, "count"},
	}
}

// stopGraceful stops the stack with SIGTERM, so each worker writes its
// shutdown snapshot, and returns the snapshots' total size.
func stopGraceful(s *stack) (bytes int64, err error) {
	if s.router != nil {
		if err := s.router.stop(syscall.SIGTERM); err != nil {
			return 0, err
		}
	}
	for _, w := range s.workers {
		if err := w.stop(syscall.SIGTERM); err != nil {
			return 0, err
		}
	}
	for _, dir := range s.dirs {
		st, err := os.Stat(filepath.Join(dir, "state.json"))
		if err != nil {
			return 0, err
		}
		bytes += st.Size()
	}
	return bytes, nil
}
