package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"time"

	"qfe/internal/service"
)

// Recovery estate shape.
const (
	estateFinishShare = 0.2 // sessions driven to their outcome
	estateMaxRounds   = 3   // other sessions stop after 0..3 rounds
)

// estate is a crashed qfe-server's durable state and what its clients
// were acknowledged before the crash.
type estate struct {
	dir              string // holds state.json and wal/
	acked            map[string]*record
	rounds           int // acknowledged rounds, both phases
	tailRounds       int // acknowledged rounds in the WAL tail (phase two)
	snapshotSessions int
	idleKB           float64 // RSS of an empty server at "listening on"
	flags            []string
}

// estatePool fixes the estate's content: its scenarios, how far each is
// driven, and whether the snapshot covers it. Per-session replay cost is
// heavy-tailed (CV ≈ 1.4 over generated scenarios), so with seeded content
// the median restart moved by 25% between seeds. The seed picks the session
// ids and the order sessions are driven in, hence the WAL's record order.
const estatePool = 20150831

// buildEstate drives the pool's sessions, under seeded ids and in seeded
// order, to their progress points. Phase one ends with a graceful restart,
// so its sessions are covered by a snapshot; phase two (the other sessions,
// and one more round on some phase-one sessions) is a WAL tail, ended by
// SIGKILL right after the last acknowledgement.
func buildEstate(e *env, dir string) (*estate, error) {
	users, err := generatedUsers(estatePool, e.size.estate, false)
	if err != nil {
		return nil, err
	}
	shape := rand.New(rand.NewSource(estatePool))
	ids := rand.New(rand.NewSource(mix(e.seed, 3)))
	for _, u := range users {
		var req service.CreateRequest
		if err := json.Unmarshal(u.createBody, &req); err != nil {
			return nil, err
		}
		req.SessionID = fmt.Sprintf("s%016x", ids.Uint64())
		if u.createBody, err = json.Marshal(req); err != nil {
			return nil, err
		}
		u.maxRounds = shape.Intn(estateMaxRounds + 1)
		if shape.Float64() < estateFinishShare {
			u.maxRounds = -1
		}
	}
	if err := os.RemoveAll(dir); err != nil { // an earlier run's estate
		return nil, err
	}
	split := len(users) / 3 // the snapshot's share; the rest is WAL tail
	snap := append([]*user(nil), users[:split]...)
	var tail []*user
	for i, u := range snap {
		if i%3 == 0 && u.maxRounds >= 0 {
			v := *u
			v.maxRounds = 1
			tail = append(tail, &v)
		}
	}
	tail = append(tail, users[split:]...)
	ids.Shuffle(len(snap), func(i, j int) { snap[i], snap[j] = snap[j], snap[i] })
	ids.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	es := &estate{dir: dir, acked: map[string]*record{}}
	es.flags = serverArgs(dir, false)
	bin := filepath.Join(e.bin, "qfe-server")

	drive := func(us []*user, crash bool) error {
		p, err := startProc("estate server", bin, es.flags, false)
		if err != nil {
			return err
		}
		if es.idleKB == 0 {
			if es.idleKB, err = p.statusKB("VmRSS"); err != nil {
				p.stop(syscall.SIGKILL)
				return err
			}
		}
		smp := &samples{}
		clients := []*client{newClient(p.url(), "e0", smp), newClient(p.url(), "e1", smp)}
		recs := runUsers(clients, us)
		for _, c := range clients {
			c.close()
		}
		for _, r := range recs {
			if r.refused {
				continue
			}
			if r.err != nil {
				p.stop(syscall.SIGKILL)
				return fmt.Errorf("estate session %s: %w", r.u.key, r.err)
			}
			if prev := es.acked[r.id]; prev != nil {
				r.rounds += prev.rounds
			}
			es.acked[r.id] = r
		}
		if crash {
			return p.stop(syscall.SIGKILL)
		}
		return p.stop(syscall.SIGTERM)
	}
	if err := drive(snap, false); err != nil {
		return nil, err
	}
	es.snapshotSessions = len(es.acked)
	before := map[string]int{}
	for id, r := range es.acked {
		before[id] = r.rounds
	}
	if err := drive(tail, true); err != nil {
		return nil, err
	}
	for id, r := range es.acked {
		es.rounds += r.rounds
		es.tailRounds += r.rounds - before[id]
	}
	return es, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

func treeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// restart is one measured recovery.
type restart struct {
	ready     time.Duration
	restored  time.Duration // ready plus every read-back request: exec → estate served
	hwmKB     float64
	cpu       time.Duration
	recovered scrape // the new process's counters at "listening on"
	served    scrape // counters of the read-back requests
	logs      [][]byte
	resident  float64
}

// restartOnce starts qfe-server over a fresh copy of the estate, reads back
// every acknowledged session and checks it, then kills the server.
func restartOnce(e *env, es *estate, i int, traced bool, smp *samples, res *result) (*restart, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("restart-%d", i))
	if err := copyTree(es.dir, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Flush the copy's dirty pages, and whatever set-up left, outside the
	// timing, so the post-recovery checkpoint's fsync does not queue
	// behind them.
	syscall.Sync()
	p, err := startProc("restarted server", filepath.Join(e.bin, "qfe-server"),
		serverArgs(dir, traced), traced)
	if err != nil {
		return nil, err
	}
	defer p.stop(syscall.SIGKILL)
	rs := &restart{ready: p.ready}
	hc := &http.Client{Timeout: 30 * time.Second}
	if traced {
		if rs.recovered, err = p.scrapeMetrics(hc); err != nil {
			return nil, err
		}
		p.takeLogs()
	}
	c := newClient(p.url(), fmt.Sprintf("r%d", i), smp)
	defer c.close()
	rs.restored = rs.ready
	for id, want := range es.acked {
		res.t.attempted++
		t0 := time.Now()
		status, data, err := c.do("get", http.MethodGet, "/sessions/"+id, nil)
		rs.restored += time.Since(t0)
		if err != nil {
			return nil, err
		}
		got, err := decodeStatus(status, data)
		switch {
		case err != nil:
			res.t.wrong++
			res.violation("restart %d: session %s: %v", i, id, err)
		case want.done && (!got.Done || !reflect.DeepEqual(got.Outcome, want.outcome)):
			res.t.wrong++
			res.violation("restart %d: session %s: outcome differs from the acknowledged one", i, id)
		case !want.done && (got.Done || got.Round.Seq != want.seq):
			res.t.wrong++
			res.violation("restart %d: session %s: not at acknowledged seq %d", i, id, want.seq)
		}
	}
	if rs.hwmKB, err = p.statusKB("VmHWM"); err != nil {
		return nil, err
	}
	// CPU since exec: recovery is part of what a restart costs.
	if rs.cpu, err = p.cpu(); err != nil {
		return nil, err
	}
	if traced {
		after, err := p.scrapeMetrics(hc)
		if err != nil {
			return nil, err
		}
		rs.served = delta(rs.recovered, after)
		rs.resident = after.total("qfe_sessions_resident").value
		rs.logs = p.takeLogs()
	}
	return rs, nil
}

func runRecovery(e *env, traced bool) (*result, error) {
	var es *estate
	var setups []float64
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		dir := filepath.Join(e.work, fmt.Sprintf("estate-%d", i))
		var err error
		if es, err = buildEstate(e, dir); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	res := &result{flags: map[string][]string{"qfe-server": es.flags}}
	n := e.size.restarts
	smp := &samples{}
	var rss []*restart
	self0 := selfCPU()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rs, err := restartOnce(e, es, i, traced, smp, res)
		if err != nil {
			return nil, err
		}
		res.t.attempted++ // the restart itself
		rss = append(rss, rs)
	}
	wall := time.Since(t0)
	clientCPU := selfCPU() - self0

	var ready, restored, hwm []float64
	var cpu time.Duration
	for _, rs := range rss {
		ready = append(ready, ms(rs.ready))
		restored = append(restored, ms(rs.restored))
		hwm = append(hwm, rs.hwmKB)
		cpu += rs.cpu
	}
	var done, modcost int
	for _, r := range es.acked {
		if r.done {
			done++
			modcost += r.outcome.TotalModCost
		}
	}
	sessions := float64(len(es.acked))
	sps := ratio(sessions*float64(n), wall.Seconds())
	rps := ratio(float64(es.rounds), sessions)
	mps := ratio(float64(modcost), float64(done))
	res.add("recover_s", median(ready)/1000, "s")
	res.add("restore_s", median(restored)/1000, "s")
	res.add("read_p50_ms", percentile(smp.read, 0.5), "ms")
	res.add("sessions_per_s", sps, "1/s")
	res.add("fail_ratio", ratio(float64(res.t.wrong+res.t.errors), sessions*float64(n)), "ratio")
	res.add("rounds_per_session", rps, "count")
	res.add("modcost_per_session", mps, "count")
	res.add("peak_rss_mb", median(hwm)/1024, "MB")
	res.add("setup_s", median(setups), "s")
	res.notes = append(res.notes, fmt.Sprintf(
		"samples restarts=%d reads=%d estate_sessions=%d finished=%d snapshot_sessions=%d rounds=%d tail_rounds=%d wall_s=%.3f rss_mb=%.0f..%.0f",
		n, len(smp.read), len(es.acked), done, es.snapshotSessions, es.rounds, es.tailRounds, wall.Seconds(),
		percentile(hwm, 0)/1024, percentile(hwm, 1)/1024))
	res.e2e = []metric{
		{"op_p50_ms", median(ready), "ms"},
		// The restarts are too few for a tail of their own (15 leave no
		// percentile above the median with 10 beyond it). op_tail_ms is
		// instead the median time until the whole estate is served, which
		// a restart that defers decoding or replay into the first reads
		// moves even when recover_s improves.
		{"op_tail_ms", median(restored), "ms"},
		{"sessions_per_s", sps, "1/s"},
		{"peak_rss_mb", median(hwm) / 1024, "MB"},
		{"setup_s", median(setups), "s"},
		{"rounds_per_session", rps, "count"},
		{"modcost_per_session", mps, "count"},
	}
	if !traced {
		return res, nil
	}

	var recovered, served []scrape
	var lines []accessLine
	var startMs, resident float64
	for _, rs := range rss {
		recovered = append(recovered, rs.recovered)
		served = append(served, rs.served)
		lines = append(lines, parseAccess(rs.logs)...)
		startMs += ms(rs.ready) - rs.recovered.total("qfe_recovery_seconds").sum*1000 -
			rs.recovered.total("qfe_checkpoint_seconds").sum*1000
		resident += rs.resident
	}
	snap, err := os.Stat(filepath.Join(es.dir, "state.json"))
	if err != nil {
		return nil, err
	}
	walBytes, err := treeBytes(filepath.Join(es.dir, "wal"))
	if err != nil {
		return nil, err
	}
	emitLayers(res, layerIn{
		chains:           joinSpans(smp.spans, nil, lines),
		eng:              merge(recovered...),
		req:              merge(served...),
		sessions:         sessions * float64(n),
		resident:         resident / float64(n),
		peakKB:           median(hwm),
		idleKB:           es.idleKB,
		snapshotBytes:    float64(snap.Size()),
		snapshotSessions: float64(es.snapshotSessions),
		walBytesPerRound: ratio(float64(walBytes), float64(es.tailRounds)),
		startMs:          startMs / float64(n),
		serverCPU:        cpu,
		clientCPU:        clientCPU,
	})
	return res, nil
}
