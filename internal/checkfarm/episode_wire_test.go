package checkfarm

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/histio"
	"duopacity/internal/spec"
)

// producedEpisodes is every kind of episode the farm puts on the wire:
// certify episodes of an engine that violates (reasons) and of one that
// skips (MaxTxns), soak cells with their histories, degraded artifacts of
// both kinds, and one episode whose free-text fields hold every byte.
func producedEpisodes(t testing.TB) []harness.EpisodeReport {
	t.Helper()
	var eps []harness.EpisodeReport
	add := func(s JobSpec) {
		s, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumShards(); i++ {
			res, err := s.RunShard(context.Background(), i)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, *res.Episode)
		}
		eps = append(eps, *s.DegradedShard(0, "worker w1: lease expired (attempt 3/3)").Episode)
	}
	all := spec.AllCriteria()
	add(certifyJob(interleavedCfg("ple", 6), all))
	add(certifyJob(harness.CertConfig{
		Workload: harness.Workload{Engine: "tl2", Objects: 2, Goroutines: 4, TxnsPerGoroutine: 3, OpsPerTxn: 4, Seed: 3},
		Episodes: 4, Interleaved: true, MaxTxns: 4,
	}, []spec.Criterion{spec.DUOpacity}))
	add(soakJob(SoakConfig{Engines: []string{"ple", "tl2"}, Rounds: 1, Seed: 5}))
	var every strings.Builder
	for c := 0; c < 256; c++ {
		every.WriteByte(byte(c))
	}
	eps = append(eps, harness.EpisodeReport{Skipped: true, Degraded: every.String(), History: eps[len(eps)-2].History, Verdicts: []spec.Verdict{
		{Criterion: spec.RCO, Reason: every.String(), Nodes: 12345},
		{Criterion: spec.Opacity, Undecided: true, Reason: "|%|", Nodes: -2},
		{OK: true},
	}})
	return eps
}

// sameEpisode reports whether two episodes carry the same fields, the
// history compared as histio text.
func sameEpisode(a, b harness.EpisodeReport) bool {
	text := func(r harness.EpisodeReport) string {
		if r.History == nil {
			return "<none>"
		}
		return histio.FormatString(r.History)
	}
	return a.Skipped == b.Skipped && a.Degraded == b.Degraded && text(a) == text(b) && reflect.DeepEqual(a.Verdicts, b.Verdicts)
}

// TestWireEpisodeRoundTrip: every episode the farm produces crosses JSON
// unchanged, and travels as one string of the compact grammar.
func TestWireEpisodeRoundTrip(t *testing.T) {
	histories, reasons, skipped := 0, 0, 0
	for i, ep := range producedEpisodes(t) {
		raw, err := json.Marshal(ep)
		if err != nil {
			t.Fatalf("episode %d: %v", i, err)
		}
		if raw[0] != '"' || strings.Contains(string(raw), `\`) {
			t.Fatalf("episode %d is not one escape-free JSON string: %s", i, raw)
		}
		var back harness.EpisodeReport
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("episode %d: %v\n%s", i, err, raw)
		}
		if !sameEpisode(back, ep) {
			t.Fatalf("episode %d changed on the wire:\n sent %+v\n got  %+v", i, ep, back)
		}
		if ep.History != nil {
			histories++
		}
		if ep.Skipped {
			skipped++
		}
		for _, v := range ep.Verdicts {
			if v.Reason != "" {
				reasons++
				break
			}
		}
	}
	if histories == 0 || reasons == 0 || skipped == 0 {
		t.Fatalf("the corpus lacks a shape: %d with histories, %d with reasons, %d skipped", histories, reasons, skipped)
	}
}

// TestWireEpisodeRefusesWhatItCannotCarry: a verdict both OK and
// undecided, or of an unknown criterion, does not encode instead of
// losing a field.
func TestWireEpisodeRefusesWhatItCannotCarry(t *testing.T) {
	for _, v := range []spec.Verdict{
		{Criterion: spec.DUOpacity, OK: true, Undecided: true},
		{Criterion: spec.Criterion(200)},
	} {
		if raw, err := json.Marshal(harness.EpisodeReport{Verdicts: []spec.Verdict{v}}); err == nil {
			t.Errorf("%+v encoded as %s", v, raw)
		}
	}
}

// FuzzWireEpisode: arbitrary text decodes to an episode or an error,
// never a panic, and what decodes re-encodes to text that decodes to the
// same episode. The seeds are every episode the farm produces.
func FuzzWireEpisode(f *testing.F) {
	for _, ep := range producedEpisodes(f) {
		raw, err := json.Marshal(ep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw[1 : len(raw)-1])
	}
	f.Add([]byte("s|%zz|"))
	f.Add([]byte("||x|du|o007|"))
	f.Fuzz(func(t *testing.T, text []byte) {
		var viaJSON, ep harness.EpisodeReport
		_ = json.Unmarshal(text, &viaJSON)
		quoted, err := json.Marshal(string(text))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(quoted, &ep); err != nil {
			return
		}
		raw, err := json.Marshal(ep)
		if err != nil {
			t.Fatalf("%q decoded to %+v, which does not encode: %v", text, ep, err)
		}
		var back harness.EpisodeReport
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%q re-encoded as %s, which does not decode: %v", text, raw, err)
		}
		if !sameEpisode(back, ep) {
			t.Fatalf("%q: decoded %+v, re-encoded %s, decoded %+v", text, ep, raw, back)
		}
	})
}
