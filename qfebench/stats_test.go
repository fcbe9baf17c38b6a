package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{1000, 0.99, 0.99}, // rank 990: exactly 10 beyond
		{999, 0.99, 0.90},  // rank 990 of 999: 9 beyond
		{110, 0.90, 0.90},  // rank 99: 11 beyond
		{100, 0.90, 0.90},  // rank 90: 10 beyond
		{40, 0.90, 0.75},   // rank 30: 10 beyond
		{39, 0.90, 0.50},   // rank 30 of 39: 9 beyond
		{10, 0.99, 0.50},   // too few for any tail: the median
		{0, 0.99, 0.50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v (beyond p90=%d p75=%d)",
				c.n, c.want, got, c.got, beyond(c.n, 0.90), beyond(c.n, 0.75))
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // order must not matter
	for _, c := range []struct{ p, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestFailRatioCountsRefusalsButFailedDoesNot(t *testing.T) {
	var total tally
	// A refused create: one operation, refused.
	total.add(tally{attempted: 1, refused: 1})
	// A session with a create, two reads and two rounds, all fine.
	total.add(tally{attempted: 5})
	// A session whose read came back at the wrong round.
	total.add(tally{attempted: 3, wrong: 1})
	// A transport error on the create.
	total.add(tally{attempted: 1, errors: 1})
	if total.attempted != 10 {
		t.Fatalf("attempted = %d", total.attempted)
	}
	if got := total.failRatio(); got != 0.3 {
		t.Errorf("failRatio = %v, want 0.3 (refused + wrong + error over 10)", got)
	}
	if got := total.failed(); got != 2 {
		t.Errorf("failed = %d, want 2 (a verified refusal is a correct answer)", got)
	}
	if (tally{}).failRatio() != 0 {
		t.Error("failRatio of nothing attempted is not 0")
	}
}

const scrapeBefore = `[
 {"name":"qfe_engine_round_seconds","type":"histogram","count":4,"sum":0.5},
 {"name":"qfe_evalcache_entries","type":"gauge","value":10},
 {"name":"qfe_http_requests_total","type":"counter","labels":{"route":"/sessions","class":"2xx"},"value":3},
 {"name":"qfe_http_requests_total","type":"counter","labels":{"class":"4xx","route":"/sessions"},"value":1}
]`

const scrapeAfter = `[
 {"name":"qfe_engine_round_seconds","type":"histogram","count":10,"sum":2},
 {"name":"qfe_evalcache_entries","type":"gauge","value":7},
 {"name":"qfe_http_requests_total","type":"counter","labels":{"class":"2xx","route":"/sessions"},"value":13},
 {"name":"qfe_http_requests_total","type":"counter","labels":{"route":"/sessions","class":"4xx"},"value":1},
 {"name":"qfe_wal_fsync_seconds","type":"histogram","count":2,"sum":0.004}
]`

func TestMetricsDelta(t *testing.T) {
	before, err := parseScrape([]byte(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape([]byte(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if r := d.total("qfe_engine_round_seconds"); r.count != 6 || math.Abs(r.sum-1.5) > 1e-12 {
		t.Errorf("round histogram delta = %+v, want count 6 sum 1.5", r)
	}
	if got := d.meanMs("qfe_engine_round_seconds"); math.Abs(got-250) > 1e-9 {
		t.Errorf("mean round = %v ms, want 250", got)
	}
	if got := d.total("qfe_evalcache_entries").value; got != 7 {
		t.Errorf("gauge delta = %v, want the later value 7", got)
	}
	// Label order in the JSON must not split a series.
	if got := d.total("qfe_http_requests_total").value; got != 10 {
		t.Errorf("requests delta = %v, want 10", got)
	}
	if got := d.meanMs("qfe_wal_fsync_seconds"); math.Abs(got-2) > 1e-9 {
		t.Errorf("new series counts from zero: mean fsync %v ms, want 2", got)
	}
	if got := d.total("qfe_engine_round"); got.count != 0 {
		t.Errorf("total matched a name prefix: %+v", got)
	}
	m := merge(d, d)
	if got := m.total("qfe_engine_round_seconds").count; got != 12 {
		t.Errorf("merged count = %v, want 12", got)
	}
	if _, err := parseScrape([]byte("not json")); err == nil {
		t.Error("malformed scrape parsed")
	}
}

func TestSpanJoinAndSelfTime(t *testing.T) {
	logs := [][]byte{
		[]byte(`{"time":"t","level":"INFO","msg":"http request","method":"POST","route":"/sessions/{id}/feedback","status":200,"elapsed":3000000,"request_id":"c0-1"}`),
		[]byte(`{"time":"t","level":"INFO","msg":"recovery complete","elapsed":9000000}`),
		[]byte(`not json`),
		[]byte(`{"msg":"http request","method":"POST","route":"/sessions/{id}/feedback","status":503,"elapsed":1000000,"request_id":"c0-2"}`),
		[]byte(`{"msg":"http request","method":"POST","route":"/sessions/{id}/feedback","status":200,"elapsed":2000000,"request_id":"c0-2"}`),
	}
	worker := parseAccess(logs)
	if len(worker) != 3 {
		t.Fatalf("parsed %d access lines, want 3 (lines without a request id are not requests)", len(worker))
	}
	router := []accessLine{
		{id: "c0-1", elapsed: 4 * time.Millisecond},
		{id: "c0-2", elapsed: 5 * time.Millisecond},
	}
	client := []span{
		{id: "c0-1", dur: 5 * time.Millisecond},
		{id: "c0-2", dur: 7 * time.Millisecond},
		{id: "c0-3", dur: 1 * time.Millisecond}, // never reached a server
	}
	chains := joinSpans(client, router, worker)
	if len(chains) != 3 {
		t.Fatalf("%d chains", len(chains))
	}
	c, r, w := chains[0].selfTimes()
	if c != time.Millisecond || r != time.Millisecond || w != 3*time.Millisecond {
		t.Errorf("c0-1 self times = %v %v %v, want 1ms 1ms 3ms", c, r, w)
	}
	// A retried request: both worker attempts are the router's children.
	if chains[1].workerLines != 2 {
		t.Errorf("c0-2 worker lines = %d, want 2", chains[1].workerLines)
	}
	c, r, w = chains[1].selfTimes()
	if c != 2*time.Millisecond || r != 2*time.Millisecond || w != 3*time.Millisecond {
		t.Errorf("c0-2 self times = %v %v %v, want 2ms 2ms 3ms", c, r, w)
	}
	if chains[1].route != "POST /sessions/{id}/feedback" {
		t.Errorf("route = %q", chains[1].route)
	}
	c, r, w = chains[2].selfTimes()
	if c != time.Millisecond || r != 0 || w != 0 {
		t.Errorf("unjoined span self times = %v %v %v, want all client time", c, r, w)
	}
	// Without a router the client's child is the worker.
	direct := joinSpans(client[:1], nil, worker)
	c, r, w = direct[0].selfTimes()
	if c != 2*time.Millisecond || r != 0 || w != 3*time.Millisecond {
		t.Errorf("direct self times = %v %v %v, want 2ms 0 3ms", c, r, w)
	}
}
