package spec_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"duopacity/internal/gen"
	"duopacity/internal/harness"
	"duopacity/internal/history"
	"duopacity/internal/koenig"
	"duopacity/internal/spec"
)

// prefixVerdict is what a rewound session must reproduce of a verdict.
type prefixVerdict struct {
	ok, undecided bool
	reason        string
}

// neverRewound feeds evs to a fresh session and returns, per prefix length
// and criterion, the verdict it reported there.
func neverRewound(t *testing.T, criteria []spec.Criterion, evs []history.Event, opts []spec.Option) [][]prefixVerdict {
	t.Helper()
	s, err := spec.NewSession(criteria, opts...)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(vs []spec.Verdict) []prefixVerdict {
		out := make([]prefixVerdict, len(vs))
		for k, v := range vs {
			out[k] = prefixVerdict{v.OK, v.Undecided, v.Reason}
		}
		return out
	}
	ref := [][]prefixVerdict{snap(s.Verdicts())}
	for i, e := range evs {
		vs, err := s.Append(e)
		if err != nil {
			t.Fatalf("reference append %d (%v): %v", i, e, err)
		}
		ref = append(ref, snap(vs))
	}
	return ref
}

// TestSessionRewindDifferential is the rewind oracle: over the per-prefix
// differential corpus, a five-criteria session is driven through random
// advance / rewind rounds, then swept from its end state back to every
// length, and must be indistinguishable, at every length it passes
// through, from a session that was fed that prefix and nothing else — each verdict's OK, Undecided and Reason (latches that survive a
// rewind and latches that a rewind lifts included), every du-opacity
// witness at a response prefix accepted by the independent validator, and
// the TMS2 / RCO conflict-order edge sets equal to the batch builders'.
// It runs plain, with the TMS2 aborted-reader exemption, and with a
// retirement window too large to ever retire (which must not matter).
// Every rewind also places its restricted witness on a freshly pooled
// engine beside the decider's held one (spec.WatchRewindPlacements): the
// held engine, sized for the length of the last rewind, must give the same
// answer and the same order at the next, longer or shorter.
func TestSessionRewindDifferential(t *testing.T) {
	criteria := spec.MonitorableCriteria()
	configs := []struct {
		name   string
		exempt bool
		opts   []spec.Option
	}{
		{"plain", false, nil},
		{"exempt", true, []spec.Option{spec.WithTMS2AbortedReaderExemption()}},
		{"window-64", false, []spec.Option{spec.WithRetirement(64)}},
	}
	searches, fastHits, placements := 0, 0, 0
	for ci, hh := range differentialCorpus() {
		ci, hh := ci, hh
		t.Run(hh.name, func(t *testing.T) {
			compared, stop := spec.WatchRewindPlacements(func(msg string) { t.Error(msg) })
			defer func() { placements += *compared; stop() }()
			evs := hh.h.Events()
			for _, cfg := range configs {
				ref := neverRewound(t, criteria, evs, cfg.opts)
				s, err := spec.NewSession(criteria, cfg.opts...)
				if err != nil {
					t.Fatal(err)
				}
				spec.WatchFlips(t)
				at := 0 // the session's length
				check := func(how string) {
					t.Helper()
					vs := s.Verdicts()
					for k, c := range criteria {
						want := ref[at][k]
						if got := (prefixVerdict{vs[k].OK, vs[k].Undecided, vs[k].Reason}); got != want {
							t.Fatalf("%s %s to %d, %v: got %+v, a never-rewound session reports %+v",
								cfg.name, how, at, c, got, want)
						}
						if want.ok && (c == spec.TMS2 || c == spec.RCO) {
							got := sortedEdges(spec.SessionEdges(s, k))
							batch := sortedEdges(spec.BatchConflictEdges(hh.h.Prefix(at), c, cfg.exempt))
							if len(got) != len(batch) {
								t.Fatalf("%s %s to %d, %v: edges %v, batch %v", cfg.name, how, at, c, got, batch)
							}
							for j := range got {
								if got[j] != batch[j] {
									t.Fatalf("%s %s to %d, %v: edges %v, batch %v", cfg.name, how, at, c, got, batch)
								}
							}
						}
						if c == spec.DUOpacity && want.ok && at > 0 && evs[at-1].Kind == history.Res {
							if err := spec.VerifySerialization(hh.h.Prefix(at), vs[k].Witness()); err != nil {
								t.Fatalf("%s %s to %d: du-opacity witness invalid: %v", cfg.name, how, at, err)
							}
						}
					}
				}
				rng := rand.New(rand.NewSource(int64(1000 + ci)))
				for round := 0; round < 12; round++ {
					for to := at + rng.Intn(len(evs)-at+1); at < to; {
						if _, err := s.Append(evs[at]); err != nil {
							t.Fatalf("%s append %d (%v): %v", cfg.name, at, evs[at], err)
						}
						at++
						check("advanced")
					}
					at = rng.Intn(at + 1)
					if err := s.Rewind(at); err != nil {
						t.Fatalf("%s rewind to %d: %v", cfg.name, at, err)
					}
					check("rewound")
				}
				for ; at < len(evs); at++ {
					if _, err := s.Append(evs[at]); err != nil {
						t.Fatalf("%s append %d (%v): %v", cfg.name, at, evs[at], err)
					}
				}
				check("finished")
				// The sweep: from the end state (latches and all) back to
				// every length, invocation-ended ones included — where an
				// edge a tryC invocation just created must not be enforced
				// before the next response — and forward again.
				for n := len(evs) - 1; n >= 0; n-- {
					at = n
					if err := s.Rewind(at); err != nil {
						t.Fatalf("%s rewind to %d: %v", cfg.name, at, err)
					}
					check("swept")
					for ; at < len(evs); at++ {
						if _, err := s.Append(evs[at]); err != nil {
							t.Fatalf("%s append %d (%v): %v", cfg.name, at, evs[at], err)
						}
					}
					check("re-finished")
				}
				if err := s.Rewind(len(evs) + 1); err == nil {
					t.Fatalf("%s: rewind past the end accepted", cfg.name)
				}
				n, f := s.Stats()
				searches += n
				fastHits += f
			}
		})
	}
	if placements == 0 {
		t.Fatal("vacuous: no rewind compared its held engine with a pooled one")
	}
	t.Logf("rewound sessions: %d searches, %d fast hits; %d rewind placements compared", searches, fastHits, placements)
}

// TestSessionRewindUnderNodeLimit pins the caveat of Session.Rewind: when a
// search is cut short the rewound session and a never-rewound one may
// disagree on Undecided — one searches where the other has a fast hit —
// but an answer never flips. For du-opacity (prefix-closed) and opacity
// (an undecided prefix latches), every verdict a node-limited session
// decides, through random advance / rewind rounds, is the unlimited
// never-rewound session's.
func TestSessionRewindUnderNodeLimit(t *testing.T) {
	criteria := []spec.Criterion{spec.DUOpacity, spec.Opacity}
	undecided := 0
	for ci, hh := range differentialCorpus() {
		evs := hh.h.Events()
		ref := neverRewound(t, criteria, evs, nil)
		for _, limit := range []int{1, 4, 16} {
			s, err := spec.NewSession(criteria, spec.WithNodeLimit(limit))
			if err != nil {
				t.Fatal(err)
			}
			at := 0
			check := func(how string) {
				t.Helper()
				for k, v := range s.Verdicts() {
					if v.Undecided {
						undecided++
					} else if v.OK != ref[at][k].ok {
						t.Fatalf("%s, node limit %d, %s to %d, %v: decided OK=%v (%s), unlimited reference %+v",
							hh.name, limit, how, at, criteria[k], v.OK, v.Reason, ref[at][k])
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(2000 + ci)))
			for round := 0; round < 12; round++ {
				for to := at + rng.Intn(len(evs)-at+1); at < to; {
					if _, err := s.Append(evs[at]); err != nil {
						t.Fatalf("%s append %d (%v): %v", hh.name, at, evs[at], err)
					}
					at++
					check("advanced")
				}
				at = rng.Intn(at + 1)
				if err := s.Rewind(at); err != nil {
					t.Fatalf("%s rewind to %d: %v", hh.name, at, err)
				}
				check("rewound")
			}
		}
	}
	if undecided == 0 {
		t.Fatal("no search hit the node limit; the test needs smaller limits")
	}
}

// TestRewindRefusedAfterRetirement: the events of a retired prefix are
// gone by design, so a session that has retired anything refuses to
// rewind — with an error, and without moving.
func TestRewindRefusedAfterRetirement(t *testing.T) {
	evs := seqStream(24, 2)
	s, err := spec.NewSession(spec.MonitorableCriteria(), spec.WithRetirement(4))
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	for _, e := range evs[:half] {
		if _, err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Retired() == 0 {
		t.Fatal("the stream retired nothing; the test needs a retirement")
	}
	retired, live := s.Retired(), s.LiveTxns()
	before := spec.SessionHistory(s).Events()
	for _, n := range []int{0, 1, len(before)} {
		if err := s.Rewind(n); err == nil {
			t.Fatalf("Rewind(%d) accepted after %d transactions retired", n, retired)
		}
	}
	if s.Retired() != retired || s.LiveTxns() != live {
		t.Fatalf("refused rewind moved the session: retired %d -> %d, live %d -> %d",
			retired, s.Retired(), live, s.LiveTxns())
	}
	after := spec.SessionHistory(s).Events()
	if len(after) != len(before) {
		t.Fatalf("refused rewind changed the live history: %d -> %d events", len(before), len(after))
	}
	for _, e := range evs[half:] {
		vs, err := s.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if !v.OK {
				t.Fatalf("serial stream rejected after a refused rewind: %v", v)
			}
		}
	}
}

// TestRewindIsLemma1 pins that a du-opacity rewind is the lemma and not a
// search: from accepted states of du-opaque streams, 2 000 random rewinds
// re-anchor the witness by restriction alone (Stats counts no search
// across any of them), and each restricted witness validates. The oracle
// is Lemma 1's construction itself, koenig.RestrictSerialization: the
// witness held before the rewind, restricted to the rewound prefix, must
// be the rewound session's witness — the same transaction order and the
// same commit bits. Verdicts (and witnesses) are defined at response
// prefixes, so both ends of the restriction are the last response prefix
// within the events held: a witness held after trailing invocations
// serializes the prefix before them, and restricting it to a prefix that
// ends in an invocation of tryC would keep a commit decision that the
// rewound session, sitting at the response before it, has no tryC for.
func TestRewindIsLemma1(t *testing.T) {
	const want = 2000
	rewinds, searches, fastHits := 0, 0, 0
	for seed := int64(0); rewinds < want; seed++ {
		h := gen.DUOpaque(gen.Config{
			Txns: 10, Objects: 3, OpsPerTxn: 3, ReadFraction: 0.5,
			PAbort: 0.2, PNoTryC: 0.15, Relax: 5, Seed: 7000 + seed,
		})
		evs := h.Events()
		m, err := spec.NewMonitor(spec.DUOpacity)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		responsePrefix := func(n int) int {
			for n > 0 && evs[n-1].Kind != history.Res {
				n--
			}
			return n
		}
		at := 0
		for round := 0; round < 40 && rewinds < want; round++ {
			for to := at + 1 + rng.Intn(len(evs)-at+1); at < to && at < len(evs); at++ {
				if v, err := m.Append(evs[at]); err != nil || !v.OK {
					t.Fatalf("seed %d: generated du-opaque stream not accepted at event %d: %v %v", seed, at, err, v)
				}
			}
			searches, _ := m.Stats()
			held, from := m.Verdict().Witness(), responsePrefix(at)
			at = rng.Intn(at + 1)
			want, err := koenig.RestrictSerialization(h.Prefix(from), held, responsePrefix(at))
			if err != nil {
				t.Fatalf("seed %d: koenig cannot restrict the held witness to %d: %v", seed, at, err)
			}
			if err := m.Rewind(at); err != nil {
				t.Fatal(err)
			}
			rewinds++
			if after, _ := m.Stats(); after != searches {
				t.Fatalf("seed %d: rewind to %d ran %d searches; Lemma 1's restricted witness should have served",
					seed, at, after-searches)
			}
			if v := m.Verdict(); !v.OK {
				t.Fatalf("seed %d: rewind to %d: %v", seed, at, v)
			} else if got := v.Witness().String(); got != want.String() {
				t.Fatalf("seed %d: rewind %d -> %d: witness [%s], Lemma 1 restricts [%s] to [%s]",
					seed, from, at, got, held, want)
			} else if at > 0 && evs[at-1].Kind == history.Res {
				if err := spec.VerifySerialization(h.Prefix(at), v.Witness()); err != nil {
					t.Fatalf("seed %d: restricted witness at %d invalid: %v", seed, at, err)
				}
			}
		}
		n, f := m.Stats()
		searches += n
		fastHits += f
	}
	t.Logf("%d rewinds: %d searches, %d fast hits", rewinds, searches, fastHits)
}

// TestRewindAllocs: a warm rewind allocates nothing. A du-opacity monitor
// holds a recorded tl2 stream and is rewound to a response prefix, then fed
// the tail again, over and over; once the stream's storage, the witness
// order and the decider's held engine have grown to the stream's size, the
// round trip allocates nothing — the rewind places the restricted witness
// (Lemma 1) on the held engine and keeps its invocations in the session's
// scratch, and the stream takes the truncated storage back.
func TestRewindAllocs(t *testing.T) {
	// A collection would empty the pools a search draws its engine from.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	evs := recorded(t, harness.Workload{Engine: "tl2", Goroutines: 4, TxnsPerGoroutine: 5, Objects: 8, OpsPerTxn: 4, ReadFraction: 0.5}, 1)
	m, err := spec.NewMonitor(spec.DUOpacity)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(from int) {
		for _, e := range evs[from:] {
			if _, err := m.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0)
	if v := m.Verdict(); !v.OK {
		t.Fatalf("recorded tl2 stream not du-opaque: %v", v)
	}
	n := len(evs) / 2
	for evs[n-1].Kind != history.Res {
		n--
	}
	searched := 0
	allocs := testing.AllocsPerRun(20, func() {
		before, _ := m.Stats()
		if err := m.Rewind(n); err != nil {
			t.Fatal(err)
		}
		after, _ := m.Stats()
		searched += after - before
		feed(n)
	})
	if searched != 0 {
		t.Errorf("the rewinds ran %d searches; each should place the restricted witness", searched)
	}
	if allocs != 0 && !raceEnabled { // -race drops pooled engines a re-fed search draws
		t.Errorf("a warm rewind to %d of %d events and the tail fed again allocate %.1f times, want 0", n, len(evs), allocs)
	}
}
