package engines

import (
	"strings"
	"testing"

	"duopacity/internal/stm/cm"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name   string
		base   string
		policy cm.Policy
	}{
		{"tl2", "tl2", cm.Passive},
		{"tl2+passive", "tl2", cm.Passive},
		{"tl2+karma", "tl2", cm.Karma},
		{"norec+backoff", "norec", cm.Backoff},
		{"dstm+greedy", "dstm", cm.Greedy},
		{"etl+v", "etl+v", cm.Passive}, // '+v' is part of the base name
		{"etl+v+karma", "etl+v", cm.Karma},
		{"etl+backoff", "etl", cm.Backoff},
		{"pdur", "pdur", cm.Passive},
		{"pdur+greedy", "pdur", cm.Greedy},
		{"gl", "gl", cm.Passive},
		{"ple", "ple", cm.Passive},
	}
	for _, c := range cases {
		base, policy, err := Parse(c.name)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.name, err)
			continue
		}
		if base != c.base || policy != c.policy {
			t.Errorf("Parse(%q) = %q, %s; want %q, %s", c.name, base, policy, c.base, c.policy)
		}
	}
}

func TestParseRejects(t *testing.T) {
	// Unknown CM suffixes are rejected with the valid matrix in the error.
	_, _, err := Parse("tl2+bogus")
	if err == nil {
		t.Fatal("unknown CM accepted")
	}
	for _, name := range cm.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list CM %q", err, name)
		}
	}
	// CM suffixes on engines that never conflict are rejected.
	for _, name := range []string{"gl+karma", "ple+backoff"} {
		if _, _, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) accepted; gl/ple take no CM", name)
		}
	}
	// Unknown bases list the full matrix.
	_, _, err = Parse("bogus+karma")
	if err == nil {
		t.Fatal("unknown base accepted")
	}
	for _, name := range Matrix() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list matrix entry %q", name)
		}
	}
}
