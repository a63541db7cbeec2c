package duopacity_test

import (
	"testing"

	"duopacity"
)

// TestCertifyExampleClaims pins what examples/certify says about its
// matrix, on the example's configuration (keep the two equal): the
// deferred-update engines accept every episode they certify (tl2, norec,
// gl and pdur certify all 25), ple fails du-opacity, final-state opacity
// and strict serializability on every episode, du-opacity never accepts
// an episode final-state opacity rejects (Theorem 10), etl and etl+v skip
// most episodes, and etl fails most of the episodes it certifies.
func TestCertifyExampleClaims(t *testing.T) {
	criteria := []duopacity.Criterion{
		duopacity.DUOpacity,
		duopacity.FinalStateOpacity,
		duopacity.StrictSerializability,
	}
	const episodes = 25
	for _, name := range duopacity.EngineNames() {
		stats, err := duopacity.Certify(duopacity.CertConfig{
			Workload: duopacity.Workload{
				Engine:           name,
				Objects:          4,
				Goroutines:       8,
				TxnsPerGoroutine: 3,
				OpsPerTxn:        3,
				ReadFraction:     0.75,
				Seed:             42,
			},
			Episodes:    episodes,
			Interleaved: true,
		}, criteria)
		if err != nil {
			t.Fatal(err)
		}
		du, fso := stats.Accepted[duopacity.DUOpacity], stats.Accepted[duopacity.FinalStateOpacity]
		if du > fso {
			t.Errorf("%s: du-opacity accepts %d episodes, final-state opacity only %d", name, du, fso)
		}
		switch name {
		case "tl2", "norec", "gl", "pdur", "dstm":
			if name != "dstm" && stats.Skipped != 0 {
				t.Errorf("%s: %d episodes skipped, want none", name, stats.Skipped)
			}
			for _, c := range criteria {
				if stats.Accepted[c] != stats.Episodes {
					t.Errorf("%s: %v accepts %d of %d episodes, want all", name, c, stats.Accepted[c], stats.Episodes)
				}
			}
		case "ple":
			for _, c := range criteria {
				if stats.Episodes != episodes || stats.Accepted[c] != 0 {
					t.Errorf("ple: %v accepts %d of %d episodes, want none of %d", c, stats.Accepted[c], stats.Episodes, episodes)
				}
			}
		case "etl", "etl+v":
			if 2*stats.Skipped <= episodes {
				t.Errorf("%s: %d of %d episodes skipped, want most", name, stats.Skipped, episodes)
			}
			if rejected := stats.Episodes - du; name == "etl" && 2*rejected <= stats.Episodes {
				t.Errorf("etl: du-opacity rejects %d of %d certified episodes, want most", rejected, stats.Episodes)
			}
		default:
			t.Errorf("engine %s has no claim in examples/certify", name)
		}
	}
}
