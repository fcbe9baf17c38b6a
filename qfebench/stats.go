package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"qfe/internal/obs"
)

// minBeyond is the number of samples a reported percentile must leave
// above it: a p99 over 200 samples would be the second-largest value,
// which is a single timing, not a tail.
const minBeyond = 10

// tailLadder is the set of percentiles a tail metric may fall back to,
// highest first.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// rankIndex is the 0-based nearest-rank position of quantile p among n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile picks the highest percentile no higher than want that
// leaves at least minBeyond of n samples above it, falling back to the
// median when even that is not possible (smoke-sized runs).
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0.50
}

// percentile returns the nearest-rank p-quantile of samples (in any
// order); 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer absent from a workload's path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts a workload's operations by how they ended.
type tally struct {
	attempted int // HTTP operations sent, plus server restarts
	refused   int // creates refused with 400 whose (D, R) has no QBO candidate
	errors    int // operations that failed for any other reason
	wrong     int // operations whose output failed a check
}

// failRatio is the fraction of attempted operations that failed, were
// refused or returned a wrong output. QBO-empty creates count: they are
// work the user asked for and did not get.
func (t tally) failRatio() float64 {
	return ratio(float64(t.refused+t.errors+t.wrong), float64(t.attempted))
}

// failed is the count the result line reports: operations that errored or
// were wrong. A refusal whose input QBO verifiably cannot serve is the
// correct response to that input, so it is excluded here (it stays in
// failRatio).
func (t tally) failed() int { return t.errors + t.wrong }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.refused += o.refused
	t.errors += o.errors
	t.wrong += o.wrong
}

// series is one scraped metric series: a counter or gauge value, or a
// histogram's count and sum (seconds for latency histograms).
type series struct {
	gauge      bool
	value      float64
	count, sum float64
}

// scrape is one /metrics?format=json snapshot keyed by name{labels}.
type scrape map[string]series

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseScrape decodes the JSON flavour of a process's /metrics endpoint.
func parseScrape(data []byte) (scrape, error) {
	var ms []obs.MetricJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ms); err != nil {
		return nil, fmt.Errorf("metrics json: %w", err)
	}
	out := scrape{}
	for _, m := range ms {
		s := series{gauge: m.Type == "gauge"}
		if m.Value != nil {
			s.value = *m.Value
		}
		if m.Count != nil {
			s.count = float64(*m.Count)
		}
		if m.Sum != nil {
			s.sum = *m.Sum
		}
		out[seriesKey(m.Name, m.Labels)] = s
	}
	return out, nil
}

// delta is what happened between two scrapes of one process: counters and
// histograms are differenced, gauges keep their later value. A series
// missing from before counts from zero.
func delta(before, after scrape) scrape {
	out := scrape{}
	for k, a := range after {
		b := before[k]
		if !a.gauge {
			a.value -= b.value
			a.count -= b.count
			a.sum -= b.sum
		}
		out[k] = a
	}
	return out
}

// merge sums scrapes of several processes (gauges too: entries, resident
// sessions and segment sizes add across workers).
func merge(ss ...scrape) scrape {
	out := scrape{}
	for _, s := range ss {
		for k, v := range s {
			o := out[k]
			o.gauge = v.gauge
			o.value += v.value
			o.count += v.count
			o.sum += v.sum
			out[k] = o
		}
	}
	return out
}

// total sums a metric over all its label sets.
func (s scrape) total(name string) series {
	var t series
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t.value += v.value
			t.count += v.count
			t.sum += v.sum
		}
	}
	return t
}

// meanMs is a latency histogram's mean observation in milliseconds.
func (s scrape) meanMs(name string) float64 {
	t := s.total(name)
	return ratio(t.sum*1000, t.count)
}

// span is one client request: the benchmark's own timing of an HTTP call,
// named by the X-Request-ID it stamped.
type span struct {
	id  string
	dur time.Duration
}

// accessLine is one structured access-log line of a server process.
type accessLine struct {
	id      string
	route   string // method and route template, e.g. "GET /sessions/{id}"
	elapsed time.Duration
}

// parseAccess extracts the access lines from a process's JSON log; other
// log lines (start-up, recovery) carry no request id and are skipped.
func parseAccess(lines [][]byte) []accessLine {
	var out []accessLine
	for _, l := range lines {
		var rec struct {
			RequestID string `json:"request_id"`
			Method    string `json:"method"`
			Route     string `json:"route"`
			Elapsed   *int64 `json:"elapsed"` // slog's JSON handler writes durations in ns
		}
		if json.Unmarshal(l, &rec) != nil || rec.RequestID == "" || rec.Elapsed == nil {
			continue
		}
		out = append(out, accessLine{id: rec.RequestID, route: rec.Method + " " + rec.Route,
			elapsed: time.Duration(*rec.Elapsed)})
	}
	return out
}

// chain is one client request joined with the server spans it caused:
// client → router → worker. A router retry shows up as several worker
// lines under one id; their elapsed times add.
type chain struct {
	route          string // the worker's method and route template
	client         time.Duration
	router, worker time.Duration
	hasRouter      bool
	workerLines    int
}

// joinSpans joins client spans with router and worker access lines by
// request id. Spans with no worker line (a request that never reached a
// worker) keep zero worker time.
func joinSpans(client []span, router, worker []accessLine) []chain {
	rt := map[string]time.Duration{}
	for _, l := range router {
		rt[l.id] += l.elapsed
	}
	type wsum struct {
		d     time.Duration
		n     int
		route string
	}
	wk := map[string]wsum{}
	for _, l := range worker {
		w := wk[l.id]
		w.d += l.elapsed
		w.n++
		w.route = l.route
		wk[l.id] = w
	}
	out := make([]chain, 0, len(client))
	for _, s := range client {
		c := chain{client: s.dur}
		if d, ok := rt[s.id]; ok {
			c.router, c.hasRouter = d, true
		}
		if w, ok := wk[s.id]; ok {
			c.worker, c.workerLines, c.route = w.d, w.n, w.route
		}
		out = append(out, c)
	}
	return out
}

// selfTimes splits a chain into the time each tier spent outside its
// children: the client's share (transport, kernel, HTTP client), the
// router's (proxy hop, retries) and the worker's whole elapsed time.
func (c chain) selfTimes() (client, router, worker time.Duration) {
	if c.hasRouter {
		return c.client - c.router, c.router - c.worker, c.worker
	}
	return c.client - c.worker, 0, c.worker
}
