package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/feedback"
	"qfe/internal/obs"
	"qfe/internal/relation"
	"qfe/internal/service"
)

// refusedMsg is the 400 body qfe-server returns when QBO finds no
// candidate for a create's (D, R).
const refusedMsg = "no SPJ query produces the given result"

// client is one closed-loop user connection: it sends a request, reads the
// whole response, and only then sends the next. Each client owns one
// keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	name string
	seq  int
	rec  *samples
}

func newClient(base, name string, rec *samples) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 3 * time.Minute},
		base: base, name: name, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The timing covers
// send to last byte read; encoding the body and decoding the response are
// outside it. Every request carries an X-Request-ID so server access
// lines join with the client span.
func (c *client) do(op, method, path string, body []byte) (int, []byte, error) {
	c.seq++
	id := fmt.Sprintf("%s-%d", c.name, c.seq)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(obs.RequestIDHeader, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	c.rec.add(op, id, d, len(body), len(data), resp.StatusCode < 300)
	return resp.StatusCode, data, nil
}

// samples collects one phase's client-side observations. Each client
// appends under the lock; nothing here is read until the phase ends.
type samples struct {
	mu                  sync.Mutex
	create, round, read []float64 // ms, successful requests only
	spans               []span
	createReqBytes      int
	roundRespBytes      int
}

func (s *samples) add(op, id string, d time.Duration, reqBytes, respBytes int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{id: id, dur: d})
	if !ok {
		return
	}
	switch op {
	case "create":
		s.create = append(s.create, ms(d))
		s.createReqBytes += reqBytes
	case "feedback":
		s.round = append(s.round, ms(d))
		s.roundRespBytes += respBytes
	case "get":
		s.read = append(s.read, ms(d))
	}
}

// user is one scheduled session: its inputs, and how far to drive it.
type user struct {
	key        string // identifies (D, R) for the in-process QBO check
	createBody []byte
	d          *db.Database
	r          *relation.Relation
	target     *algebra.Query
	maxRounds  int  // answer at most this many rounds; <0 = to the end
	readEach   bool // GET the session once per round
	closeDone  bool // DELETE the session once it has its outcome
}

// record is what the client saw of one session.
type record struct {
	u          *user
	id         string
	refused    bool
	err        error
	candidates int
	rounds     int // feedback requests acknowledged
	seq        int // seq of the pending round after the last acknowledgement
	done       bool
	outcome    *service.OutcomeJSON
	shown      []shownRound // every round answered, in order
	t          tally
}

// shownRound is what the output checks need of one answered round: the
// edits that made its D′ from D, and the SQL of every candidate it showed.
type shownRound struct {
	key   string // the user's input and the edits: equal keys, equal D′
	edits []db.CellEdit
	sql   map[string]bool
}

// runUsers drives users in list order through the clients, each client
// taking the next unstarted user as soon as its current session ends.
func runUsers(clients []*client, users []*user) []*record {
	recs := make([]*record, len(users))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(users) {
					return
				}
				recs[i] = c.drive(users[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// drive runs one session as a target-policy user.
func (c *client) drive(u *user) *record {
	rec := &record{u: u}
	fail := func(err error) *record {
		rec.err = err
		rec.t.errors++
		return rec
	}
	rec.t.attempted++
	status, data, err := c.do("create", http.MethodPost, "/sessions", u.createBody)
	if err != nil {
		return fail(err)
	}
	if status == http.StatusBadRequest && strings.Contains(string(data), refusedMsg) {
		rec.refused = true
		rec.t.refused++
		return rec
	}
	st, err := decodeStatus(status, data)
	if err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	rec.id, rec.candidates = st.ID, st.Candidates
	for {
		rec.observe(st)
		if st.Done && u.closeDone {
			rec.t.attempted++
			status, data, err := c.do("delete", http.MethodDelete, "/sessions/"+rec.id, nil)
			if err != nil {
				return fail(err)
			}
			if status >= 300 {
				return fail(fmt.Errorf("delete: status %d: %s", status, bytes.TrimSpace(data)))
			}
		}
		if st.Done || (u.maxRounds >= 0 && rec.rounds >= u.maxRounds) {
			return rec
		}
		if u.readEach {
			rec.t.attempted++
			status, data, err := c.do("get", http.MethodGet, "/sessions/"+rec.id, nil)
			if err != nil {
				return fail(err)
			}
			got, err := decodeStatus(status, data)
			if err != nil {
				return fail(fmt.Errorf("get: %w", err))
			}
			if got.Round == nil || got.Round.Seq != st.Round.Seq {
				rec.t.wrong++
				rec.err = fmt.Errorf("get %s: not at pending round %d", rec.id, st.Round.Seq)
				return rec
			}
		}
		choice, edits, err := chooseTarget(u, st.Round)
		if err != nil {
			return fail(err)
		}
		sr := shownRound{key: u.key + "\x00" + fmt.Sprint(edits), edits: edits, sql: map[string]bool{}}
		for _, rr := range st.Round.Results {
			for _, q := range rr.Queries {
				sr.sql[q] = true
			}
		}
		rec.shown = append(rec.shown, sr)
		body, _ := json.Marshal(service.FeedbackRequest{Choice: choice, Seq: st.Round.Seq})
		rec.t.attempted++
		status, data, err := c.do("feedback", http.MethodPost, "/sessions/"+rec.id+"/feedback", body)
		if err != nil {
			return fail(err)
		}
		if st, err = decodeStatus(status, data); err != nil {
			return fail(fmt.Errorf("feedback: %w", err))
		}
		rec.rounds++
	}
}

// observe notes the last acknowledged state of the session.
func (r *record) observe(st *service.SessionJSON) {
	r.done = st.Done
	if st.Round != nil {
		r.seq = st.Round.Seq
	}
	r.outcome = st.Outcome
}

func decodeStatus(status int, data []byte) (*service.SessionJSON, error) {
	if status >= 300 {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var st service.SessionJSON
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	if !st.Done && st.Round == nil {
		return nil, fmt.Errorf("session %s has neither round nor outcome", st.ID)
	}
	return &st, nil
}

// chooseTarget answers a round as the paper's target-feedback user: it
// rebuilds D′ from the round's edits, evaluates the target there and picks
// the matching result, or "none of these". It returns the decoded edits.
func chooseTarget(u *user, round *service.RoundJSON) (int, []db.CellEdit, error) {
	edits, err := codec.DecodeEdits(round.Edits)
	if err != nil {
		return 0, nil, fmt.Errorf("round edits: %w", err)
	}
	modified, err := u.d.ApplyEdits(edits)
	if err != nil {
		return 0, nil, fmt.Errorf("applying round edits: %w", err)
	}
	view := feedback.View{Iteration: round.Iteration, BaseDB: u.d, BaseR: u.r,
		NewDB: modified, Edits: edits}
	for i, rr := range round.Results {
		rel, err := codec.DecodeRelation(rr.Result)
		if err != nil {
			return 0, nil, fmt.Errorf("round result %d: %w", i, err)
		}
		view.Results = append(view.Results, rel)
	}
	choice, ok, err := feedback.Target{Query: u.target}.Choose(view)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return core.NoneOfThese, edits, nil
	}
	return choice, edits, nil
}

// produces reports whether q returns exactly r on d: the output check for
// an identified query and for every candidate an ambiguous outcome keeps.
func produces(q *algebra.Query, d *db.Database, r *relation.Relation) error {
	got, err := q.Evaluate(d)
	if err != nil {
		return err
	}
	if got.BagEqual(r) || (q.Distinct && got.SetFingerprint() == r.SetFingerprint()) {
		return nil
	}
	return fmt.Errorf("query %s does not return R on D", q.SQL())
}

// matches reports whether got can be the result a target-feedback user
// picks when the target returns want. feedback.Target picks a result equal
// to the target's first and, for a DISTINCT target, one with the same set
// of rows only when no result is equal; so with exact, matches reports
// whether got is always the one picked.
func matches(got, want *relation.Relation, distinct, exact bool) bool {
	return got.Fingerprint() == want.Fingerprint() ||
		(!exact && distinct && got.SetFingerprint() == want.SetFingerprint())
}

// outcomeCheck is what checkOutcome established about one session.
type outcomeCheck struct {
	dprime   int      // query-on-D′ agreements checked against the target
	findings []string // merged candidates a shown D′ distinguishes
}

// checkOutcome verifies a finished session's outcome against its inputs and
// the rounds its user answered. An error is a violation: the outcome
// contradicts an answer about a query the session showed.
//
// A found query (the identified one, or each remaining candidate of an
// ambiguous outcome) must return R on D and agree with the target on the D′
// of every round of its join-schema group: the rounds that showed a found
// query, whose answers kept it. Rounds of earlier groups never evaluated
// it. A not-found outcome claims the target is outside QC: no QBO candidate
// (qc gives them, with the server's cap) may return exactly the target's
// result on the D′ of every round, since such a candidate's result is
// picked wherever it is shown, so it is never eliminated.
//
// A round shows only one representative of each class of candidates the
// session merged as indistinguishable. A merged member that a shown D′
// does distinguish from the target is reported as a finding, not a
// violation: the answers never covered it, and the merge, not the
// winnowing, put it in the outcome (or dropped it with its representative).
//
// memo keeps each (D′, query, exactness) agreement across sessions: the
// repeated study sessions of shared-large show the same rounds every pass.
func checkOutcome(r *record, qc func() ([]*algebra.Query, error), memo map[string]bool) (outcomeCheck, error) {
	var c outcomeCheck
	o, u := r.outcome, r.u
	if o == nil {
		return c, fmt.Errorf("finished without an outcome")
	}
	shown := func(q *algebra.Query) bool {
		for _, sr := range r.shown {
			if sr.sql[q.SQL()] {
				return true
			}
		}
		return false
	}
	// Each round's D′ and the target's result there, built on first use.
	dprime := make([]*db.Database, len(r.shown))
	want := make([]*relation.Relation, len(r.shown))
	// agreesOn checks q against the target on the D′ of the given rounds
	// and returns the first round (1-based) where they differ, or 0.
	agreesOn := func(q *algebra.Query, rounds []int, exact bool) (int, error) {
		for _, i := range rounds {
			c.dprime++
			k := fmt.Sprintf("%s\x00%s\x00%v", r.shown[i].key, q.SQL(), exact)
			ok, seen := memo[k]
			if seen {
				if !ok {
					return i + 1, nil
				}
				continue
			}
			if dprime[i] == nil {
				d, err := u.d.ApplyEdits(r.shown[i].edits)
				if err != nil {
					return 0, err
				}
				if want[i], err = u.target.Evaluate(d); err != nil {
					return 0, err
				}
				dprime[i] = d
			}
			got, err := q.Evaluate(dprime[i])
			if err != nil {
				return 0, err
			}
			ok = matches(got, want[i], u.target.Distinct, exact)
			memo[k] = ok
			if !ok {
				return i + 1, nil
			}
		}
		return 0, nil
	}
	if !o.Found {
		cands, err := qc()
		if err != nil {
			return c, err
		}
		all := make([]int, len(r.shown))
		for i := range all {
			all[i] = i
		}
		for _, q := range cands {
			differs, err := agreesOn(q, all, true)
			if err != nil {
				return c, err
			}
			if differs > 0 {
				continue
			}
			if shown(q) {
				return c, fmt.Errorf("not found, but shown candidate %s returns the target's result on every D′", q.SQL())
			}
			c.findings = append(c.findings, fmt.Sprintf(
				"not found, but merged candidate %s returns the target's result on every D′", q.SQL()))
		}
		return c, nil
	}
	var found []*algebra.Query
	for _, cq := range o.Remaining {
		q, err := codec.DecodeQuery(cq)
		if err != nil {
			return c, err
		}
		found = append(found, q)
	}
	if o.Query != nil && len(found) == 0 {
		q, err := codec.DecodeQuery(*o.Query)
		if err != nil {
			return c, err
		}
		found = append(found, q)
	}
	if len(found) == 0 || (!o.Ambiguous && len(found) != 1) {
		return c, fmt.Errorf("found, with %d queries and ambiguous=%v", len(found), o.Ambiguous)
	}
	var group []int
	for i, sr := range r.shown {
		for _, q := range found {
			if sr.sql[q.SQL()] {
				group = append(group, i)
				break
			}
		}
	}
	for _, q := range found {
		if err := produces(q, u.d, u.r); err != nil {
			return c, err
		}
		differs, err := agreesOn(q, group, false)
		if err != nil {
			return c, err
		}
		if differs == 0 {
			continue
		}
		if shown(q) {
			return c, fmt.Errorf("found %s disagrees with the target on the D′ of round %d", q.SQL(), differs)
		}
		c.findings = append(c.findings, fmt.Sprintf(
			"merged candidate %s in the outcome disagrees with the target on the D′ of round %d", q.SQL(), differs))
	}
	return c, nil
}
