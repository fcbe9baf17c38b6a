package main

import (
	"strings"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/db"
	"qfe/internal/relation"
	"qfe/internal/service"
)

// checkFixture is one table T(id, a, b) with a = b on every row, so
// "SELECT T.a" (the target) and "SELECT T.b" both return R on D, and one
// answered round whose D′ changes b on the first row, which tells them
// apart.
func checkFixture(t *testing.T) (u *user, qa, qb *algebra.Query, round db.CellEdit) {
	t.Helper()
	d := db.New()
	tab := relation.New("T", relation.NewSchema(
		"id", relation.KindInt, "a", relation.KindString, "b", relation.KindString))
	tab.Append(relation.NewTuple(1, "x", "x"), relation.NewTuple(2, "y", "y"))
	d.MustAddTable(tab)
	proj := func(col string) *algebra.Query {
		return &algebra.Query{Tables: []string{"T"}, Projection: []string{"T." + col}}
	}
	qa, qb = proj("a"), proj("b")
	r, err := qa.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	u = &user{key: "fixture", d: d, r: r, target: qa}
	return u, qa, qb, db.CellEdit{Table: "T", Row: 0, Column: "b", Value: relation.Str("w")}
}

func TestCheckOutcome(t *testing.T) {
	u, qa, qb, edit := checkFixture(t)
	// rec builds the record of one answered round showing the given
	// queries, finished with the given outcome.
	rec := func(o *service.OutcomeJSON, shown ...*algebra.Query) *record {
		sr := shownRound{key: "fixture", edits: []db.CellEdit{edit}, sql: map[string]bool{}}
		for _, q := range shown {
			sr.sql[q.SQL()] = true
		}
		return &record{u: u, done: true, outcome: o, shown: []shownRound{sr}}
	}
	enc := func(qs ...*algebra.Query) []codec.Query {
		var out []codec.Query
		for _, q := range qs {
			out = append(out, codec.EncodeQuery(q))
		}
		return out
	}
	identified := func(q *algebra.Query) *service.OutcomeJSON {
		cq := codec.EncodeQuery(q)
		return &service.OutcomeJSON{Found: true, Query: &cq, Remaining: enc(q)}
	}
	ambiguous := &service.OutcomeJSON{Found: true, Ambiguous: true, Remaining: enc(qa, qb)}
	notFound := &service.OutcomeJSON{}
	qc := func(qs ...*algebra.Query) func() ([]*algebra.Query, error) {
		return func() ([]*algebra.Query, error) { return qs, nil }
	}
	cases := []struct {
		name     string
		r        *record
		qc       []*algebra.Query
		err      string // substring of the violation; "" for none
		findings int
	}{
		{"identified target", rec(identified(qa), qa, qb), nil, "", 0},
		{"identified non-target", rec(identified(qb), qa, qb), nil, "disagrees with the target", 0},
		{"ambiguous, both shown", rec(ambiguous, qa, qb), nil, "disagrees with the target", 0},
		{"ambiguous, merged member", rec(ambiguous, qa), nil, "", 1},
		{"not found, target shown", rec(notFound, qa, qb), []*algebra.Query{qa, qb}, "not found, but shown", 0},
		{"not found, target outside QC", rec(notFound, qb), []*algebra.Query{qb}, "", 0},
		{"not found, target merged away", rec(notFound, qb), []*algebra.Query{qa, qb}, "", 1},
		{"no outcome", rec(nil), nil, "without an outcome", 0},
	}
	// Every case shows the same round, so the second pass answers from the
	// memo the first pass filled.
	memo := map[string]bool{}
	for _, c := range append(cases, cases...) {
		got, err := checkOutcome(c.r, qc(c.qc...), memo)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected violation: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: violation %v, want one containing %q", c.name, err, c.err)
		}
		if len(got.findings) != c.findings {
			t.Errorf("%s: %d findings %v, want %d", c.name, len(got.findings), got.findings, c.findings)
		}
	}
}

// A DISTINCT target's user picks a result with the target's rows first, and
// one with the same set of rows only when none has them: a candidate that
// matches only as a set can be eliminated, so the not-found check needs the
// exact match.
func TestMatchesExactForDistinctTarget(t *testing.T) {
	u, qa, _, _ := checkFixture(t)
	dup := u.d.Clone()
	dup.Table("T").Append(relation.NewTuple(3, "x", "x"))
	got, err := qa.Evaluate(dup) // x, y, x
	if err != nil {
		t.Fatal(err)
	}
	want := &algebra.Query{Tables: qa.Tables, Projection: qa.Projection, Distinct: true}
	set, err := want.Evaluate(dup) // x, y
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		distinct, exact, want bool
	}{{true, false, true}, {true, true, false}, {false, false, false}} {
		if m := matches(got, set, c.distinct, c.exact); m != c.want {
			t.Errorf("matches(distinct=%v, exact=%v) = %v, want %v", c.distinct, c.exact, m, c.want)
		}
	}
	if !matches(set, set, false, true) {
		t.Error("equal results do not match")
	}
}
