package main

import (
	"time"
)

// layerIn is what a traced run measured, in the shape the per-layer
// metrics are computed from. eng holds the counters of the processes'
// engine work (for recovery: the replay each restart did before
// listening); req holds the counters of the measured requests.
type layerIn struct {
	chains []chain
	router scrape // router delta, nil without a router
	eng    scrape
	req    scrape

	creates, refused, candidates int
	qboTime                      time.Duration
	rounds                       int     // acknowledged feedback rounds
	sessions                     float64 // sessions the CPU is charged to
	resident                     float64 // sessions resident at peak memory
	peakKB, idleKB               float64
	reqBytes, respBytes          int
	snapshotBytes                float64
	snapshotSessions             float64
	walBytesPerRound             float64
	startMs                      float64
	serverCPU, clientCPU         time.Duration
}

// emitLayers appends every per-layer metric, in a fixed order, to res.
// A layer that is not on a workload's path reports 0.
func emitLayers(res *result, in layerIn) {
	var hop, client, worker time.Duration
	var workerReqs int
	route := map[string][]float64{}
	for _, c := range in.chains {
		_, rs, ws := c.selfTimes()
		hop += rs
		client += c.client
		if c.workerLines > 0 {
			worker += ws
			workerReqs++
			route[c.route] = append(route[c.route], ms(c.worker))
		}
	}
	n := float64(len(in.chains))
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return ratio(s, float64(len(v)))
	}
	secMs := func(s scrape, name string) float64 { return s.total(name).sum * 1000 }

	qboMs := ms(in.qboTime)
	coreReqMs := secMs(in.req, "qfe_engine_round_seconds")
	walReqMs := secMs(in.req, "qfe_wal_append_seconds") + secMs(in.req, "qfe_wal_fsync_seconds")

	res.layer("cluster.hop_ms", ratio(ms(hop), n), "ms")
	res.layer("cluster.retries", in.router.total("qfe_router_retries_total").value, "count")
	res.layer("cluster.shed", in.router.total("qfe_router_shed_total").value, "count")

	res.layer("service.create_ms", mean(route["POST /sessions"]), "ms")
	res.layer("service.feedback_ms", mean(route["POST /sessions/{id}/feedback"]), "ms")
	res.layer("service.get_ms", mean(route["GET /sessions/{id}"]), "ms")
	res.layer("service.unattributed_ms",
		ratio(ms(worker)-qboMs-coreReqMs-walReqMs, float64(workerReqs)), "ms")
	res.layer("service.resp_kb_per_round", ratio(float64(in.respBytes)/1024, float64(in.rounds)), "kB")
	res.layer("service.req_kb_per_create", ratio(float64(in.reqBytes)/1024, float64(in.creates)), "kB")
	res.layer("service.rss_kb_per_session", ratio(in.peakKB-in.idleKB, in.resident), "kB")
	res.layer("service.recovery_ms", in.eng.meanMs("qfe_recovery_seconds"), "ms")
	res.layer("service.checkpoint_ms", in.eng.meanMs("qfe_checkpoint_seconds"), "ms")

	res.layer("qbo.generate_ms", ratio(qboMs, float64(in.creates)), "ms")
	res.layer("qbo.candidates_per_create", ratio(float64(in.candidates), float64(in.creates)), "count")
	res.layer("qbo.empty_ratio", ratio(float64(in.refused), float64(in.creates)), "ratio")

	eng := in.eng
	engRounds := eng.total("qfe_engine_round_seconds").count
	perRound := func(name string) float64 { return ratio(secMs(eng, name), engRounds) }
	res.layer("core.round_ms", eng.meanMs("qfe_engine_round_seconds"), "ms")
	res.layer("core.rounds_total", eng.total("qfe_engine_rounds_total").value, "count")

	res.layer("dbgen.generate_ms", perRound("qfe_engine_dbgen_seconds"), "ms")
	res.layer("dbgen.skyline_ms", perRound("qfe_engine_skyline_seconds"), "ms")
	res.layer("dbgen.alg4_enumerate_ms", perRound("qfe_engine_alg4_enumerate_seconds"), "ms")
	res.layer("dbgen.alg4_score_ms", perRound("qfe_engine_alg4_score_seconds"), "ms")
	res.layer("dbgen.alg4_topk_ms", perRound("qfe_engine_alg4_topk_seconds"), "ms")
	res.layer("dbgen.concretize_ms", perRound("qfe_engine_concretize_seconds"), "ms")
	sp := eng.total("qfe_engine_skyline_pairs")
	res.layer("dbgen.skyline_pairs_per_round", ratio(sp.sum, sp.count), "count")
	cd := eng.total("qfe_engine_candidates")
	res.layer("dbgen.candidates_per_round", ratio(cd.sum, cd.count), "count")
	res.layer("dbgen.nosplit", eng.total("qfe_engine_nosplit_total").value, "count")

	res.layer("algebra.batch_eval_ms", perRound("qfe_engine_batch_eval_seconds"), "ms")
	res.layer("algebra.queries_per_scan", ratio(eng.total("qfe_engine_batch_queries_total").value,
		eng.total("qfe_engine_batch_scans_total").value), "count")
	res.layer("algebra.delta_queries_per_batch", ratio(eng.total("qfe_engine_delta_queries_total").value,
		eng.total("qfe_engine_delta_batches_total").value), "count")

	hits := eng.total("qfe_evalcache_hits_total").value
	misses := eng.total("qfe_evalcache_misses_total").value
	res.layer("evalcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	res.layer("evalcache.evictions", eng.total("qfe_evalcache_evictions_total").value, "count")
	res.layer("evalcache.entries", eng.total("qfe_evalcache_entries").value, "count")

	res.layer("wal.append_ms", in.req.meanMs("qfe_wal_append_seconds"), "ms")
	res.layer("wal.fsync_ms", in.req.meanMs("qfe_wal_fsync_seconds"), "ms")
	res.layer("wal.bytes_per_round", in.walBytesPerRound, "B")
	res.layer("wal.replay_records_per_s", ratio(eng.total("qfe_wal_replay_records_total").value,
		eng.total("qfe_recovery_seconds").sum), "1/s")

	res.layer("codec.snapshot_kb_per_session", ratio(in.snapshotBytes/1024, in.snapshotSessions), "kB")

	res.layer("proc.server_cpu_ms_per_session", ratio(ms(in.serverCPU), in.sessions), "ms")
	res.layer("proc.start_ms", in.startMs, "ms")
	res.layer("client.cpu_share", ratio(float64(in.clientCPU), float64(in.clientCPU+in.serverCPU)), "ratio")

	clientMs := ratio(ms(client), n)
	layersMs := ratio(ms(hop)+qboMs+coreReqMs+walReqMs, n)
	res.layer("trace.client_ms", clientMs, "ms")
	res.layer("trace.layers_ms", layersMs, "ms")
	res.layer("trace.unattributed_ms", clientMs-layersMs, "ms")
}

// layerMetrics computes a load workload's per-layer metrics from its
// traced phase, then stops the workers gracefully to size their snapshots.
func layerMetrics(res *result, s *stack, ph *phase, c checked) error {
	var routerLines, workerLines []accessLine
	var router scrape
	var workers []scrape
	var startMs float64
	for i, p := range s.procs() {
		d := delta(ph.before[i], ph.after[i])
		lines := parseAccess(ph.logs[i])
		// Recovery and the post-recovery checkpoint happen once, before
		// "listening on"; the rest of exec-to-ready is process start.
		b := ph.before[i]
		startMs += ms(p.ready) - b.total("qfe_recovery_seconds").sum*1000 -
			b.total("qfe_checkpoint_seconds").sum*1000
		if p == s.router {
			router, routerLines = d, lines
			continue
		}
		workers = append(workers, d)
		workerLines = append(workerLines, lines...)
	}
	wk := merge(workers...)
	var hwm, idle float64
	for i := range ph.hwmKB {
		hwm += ph.hwmKB[i]
		idle += s.idleKB[i]
	}
	resident := wk.total("qfe_sessions_resident").value
	snapBytes, err := stopGraceful(s)
	if err != nil {
		return err
	}
	emitLayers(res, layerIn{
		chains:           joinSpans(ph.smp.spans, routerLines, workerLines),
		router:           router,
		eng:              wk,
		req:              wk,
		creates:          c.creates,
		refused:          c.refused,
		candidates:       c.candidates,
		qboTime:          c.qboTime,
		rounds:           len(ph.smp.round),
		sessions:         float64(c.completed),
		resident:         resident,
		peakKB:           hwm,
		idleKB:           idle,
		reqBytes:         ph.smp.createReqBytes,
		respBytes:        ph.smp.roundRespBytes,
		snapshotBytes:    float64(snapBytes),
		snapshotSessions: resident,
		walBytesPerRound: ratio(wk.total("qfe_wal_bytes_total").value, float64(len(ph.smp.round))),
		startMs:          startMs / float64(len(s.procs())),
		serverCPU:        ph.cpu,
		clientCPU:        ph.clientCPU,
	})
	return nil
}
