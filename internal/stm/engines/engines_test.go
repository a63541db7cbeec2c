package engines

import (
	"slices"
	"strings"
	"testing"

	"duopacity/internal/stm"
)

// TestTraits pins what each base engine is — written out here, not read
// from the registry — and checks the registry against it: Names and
// CMEngines list the rows in order, each base name has its row's traits,
// and names Parse rejects build nothing and claim no traits.
// TestClassificationIgnoresCM carries the rows over to every suffixed
// name.
func TestTraits(t *testing.T) {
	rows := []struct {
		name   string
		traits Traits
	}{
		{"tl2", Traits{CM: true, DeferredUpdate: true, KillSafe: true, Blocking: NoBlocking, Commute: BufferedWrites}},
		{"norec", Traits{CM: true, DeferredUpdate: true, KillSafe: true, Blocking: NoBlocking, Commute: BufferedWrites}},
		{"dstm", Traits{CM: true, DeferredUpdate: true, KillSafe: true, Blocking: NoBlocking, Commute: NoCommute}},
		{"etl", Traits{CM: true, DeferredUpdate: false, KillSafe: false, Blocking: NoBlocking, Commute: NoCommute}},
		{"etl+v", Traits{CM: true, DeferredUpdate: false, KillSafe: false, Blocking: NoBlocking, Commute: NoCommute}},
		{"gl", Traits{CM: false, DeferredUpdate: true, KillSafe: false, Blocking: GlobalLock, Commute: NoCommute}},
		{"ple", Traits{CM: false, DeferredUpdate: false, KillSafe: false, Blocking: WriterLock, Commute: UnvalidatedReads}},
		{"pdur", Traits{CM: true, DeferredUpdate: true, KillSafe: true, Blocking: NoBlocking, Commute: BufferedWrites}},
	}
	var names, cmNames []string
	for _, r := range rows {
		names = append(names, r.name)
		if r.traits.CM {
			cmNames = append(cmNames, r.name)
		}
		if got := TraitsOf(r.name); got != r.traits {
			t.Errorf("TraitsOf(%q) = %+v, want %+v", r.name, got, r.traits)
		}
	}
	if got := Names(); !slices.Equal(got, names) {
		t.Errorf("Names() = %v, want %v", got, names)
	}
	if got := CMEngines(); !slices.Equal(got, cmNames) {
		t.Errorf("CMEngines() = %v, want %v", got, cmNames)
	}

	for _, name := range []string{"", "bogus", "tl2+bogus", "gl+karma", "ple+passive"} {
		if _, err := New(name, 4); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
		if got := TraitsOf(name); got != (Traits{}) {
			t.Errorf("TraitsOf(%q) = %+v, want the zero Traits", name, got)
		}
	}
}

// suffixed lists every CM-suffixed engine name: the Matrix cells beyond
// the base names, and the explicit "+passive" spelling of each CM engine.
func suffixed() []string {
	var out []string
	for _, name := range Matrix() {
		if !slices.Contains(Names(), name) {
			out = append(out, name)
		}
	}
	for _, e := range CMEngines() {
		out = append(out, e+"+passive")
	}
	return out
}

// checkBuilds builds name over objects and checks the engine reports
// want as its name, and runs a trivial transaction that reads the first
// object and writes the last.
func checkBuilds(t *testing.T, name, want string, objects int) {
	t.Helper()
	e, err := New(name, objects)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	if e.Name() != want {
		t.Errorf("New(%q).Name() = %q, want %q", name, e.Name(), want)
	}
	if err := stm.Atomically(e, func(tx stm.Txn) error {
		v, err := tx.Read(0)
		if err != nil {
			return err
		}
		return tx.Write(objects-1, v+1)
	}); err != nil {
		t.Errorf("%s: trivial transaction: %v", name, err)
	}
}

// TestRegistryRoundTrip: every registered name constructs an engine whose
// self-reported name matches the registry key and that completes a
// trivial transaction over the requested number of objects.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Names() {
		checkBuilds(t, name, name, 7)
	}
}

// TestMatrixConstructs: every CM-suffixed name — each Matrix cell beyond
// the base names, and each "+passive" spelling — builds an engine whose
// self-reported name round-trips ("+passive" normalizing away) and that
// completes a trivial transaction.
func TestMatrixConstructs(t *testing.T) {
	for _, name := range suffixed() {
		checkBuilds(t, name, strings.TrimSuffix(name, "+passive"), 8)
	}
}

// TestClassificationIgnoresCM pins the contract that the CM suffix never
// changes what an engine is: every suffixed name has exactly its base
// engine's traits.
func TestClassificationIgnoresCM(t *testing.T) {
	for _, name := range suffixed() {
		base, _, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if got, want := TraitsOf(name), TraitsOf(base); got != want {
			t.Errorf("TraitsOf(%q) = %+v, but TraitsOf(%q) = %+v", name, got, base, want)
		}
	}
}

// TestDeferredUpdateClassification pins the paper's classification, the
// one trait the Section 5 claim rests on: deferred-update engines buffer
// writes until tryC (gl trivially, holding the lock for the whole
// transaction); the encounter-time engines write in place before tryC.
func TestDeferredUpdateClassification(t *testing.T) {
	want := map[string]bool{
		"tl2": true, "norec": true, "dstm": true, "gl": true, "pdur": true,
		"etl": false, "etl+v": false, "ple": false,
	}
	for _, name := range Names() {
		if got := TraitsOf(name).DeferredUpdate; got != want[name] {
			t.Errorf("TraitsOf(%q).DeferredUpdate = %v, want %v", name, got, want[name])
		}
	}
	if TraitsOf("bogus").DeferredUpdate {
		t.Error("unknown engines must not be classified deferred-update")
	}
}

func TestUnknownEngine(t *testing.T) {
	_, err := New("bogus", 4)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error does not name the unknown engine: %v", err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list registered engine %q: %v", name, err)
		}
	}
}
