package checkfarm

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"duopacity/internal/harness"
	"duopacity/internal/spec"
)

// producedEpisodes is every kind of episode the farm puts on the wire:
// certify episodes of an engine that violates (reasons) and of one that
// skips (MaxTxns), soak cells with their histories, degraded artifacts of
// both kinds, and one episode whose text fields hold every byte.
func producedEpisodes(t testing.TB) []WireEpisode {
	t.Helper()
	var eps []WireEpisode
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
	eps = append(eps, WireEpisode{Skipped: true, Degraded: every.String(), History: every.String(), Verdicts: []WireVerdict{
		{Criterion: spec.RCO, Reason: every.String(), Nodes: 12345},
		{Criterion: spec.Opacity, Undecided: true, Reason: "|%|", Nodes: -2},
		{OK: true},
	}})
	return eps
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
		var back WireEpisode
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("episode %d: %v\n%s", i, err, raw)
		}
		if !reflect.DeepEqual(back, ep) {
			t.Fatalf("episode %d changed on the wire:\n sent %+v\n got  %+v", i, ep, back)
		}
		if ep.History != "" {
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

// TestWireEpisodeRefusesWhatItCannotCarry: a verdict with witness text,
// or both OK and undecided, does not encode instead of losing a field.
func TestWireEpisodeRefusesWhatItCannotCarry(t *testing.T) {
	for _, v := range []WireVerdict{
		{Criterion: spec.DUOpacity, OK: true, Witness: "T1"},
		{Criterion: spec.DUOpacity, OK: true, Undecided: true},
		{Criterion: spec.Criterion(200)},
	} {
		if raw, err := json.Marshal(WireEpisode{Verdicts: []WireVerdict{v}}); err == nil {
			t.Errorf("%+v encoded as %s", v, raw)
		}
	}
}

// TestWireEpisodeAllocatesByWhatItReads: an episode text of a million
// separators is refused without the decoder allocating for the verdicts
// they could stand for.
func TestWireEpisodeAllocatesByWhatItReads(t *testing.T) {
	text := strings.Repeat("|", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := parseWireEpisode(text); err == nil {
		t.Fatal("a text of separators parsed")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing %d separators allocated %d bytes", len(text), grew)
	}
}

// FuzzWireEpisode: arbitrary text parses to an episode or an error, never
// a panic, and what parses re-encodes to text that parses to the same
// episode. The seeds are every episode the farm produces.
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
		var viaJSON WireEpisode
		_ = json.Unmarshal(text, &viaJSON)
		ep, err := parseWireEpisode(string(text))
		if err != nil {
			return
		}
		raw, err := json.Marshal(ep)
		if err != nil {
			t.Fatalf("%q parsed to %+v, which does not encode: %v", text, ep, err)
		}
		var back WireEpisode
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%q re-encoded as %s, which does not decode: %v", text, raw, err)
		}
		if !reflect.DeepEqual(back, ep) {
			t.Fatalf("%q: parsed %+v, re-encoded %s, decoded %+v", text, ep, raw, back)
		}
	})
}
