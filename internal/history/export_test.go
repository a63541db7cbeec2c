package history

// Hooks for the external differential tests (stream_fuzz_test.go): the
// one-shot batch index construction and the structural comparators defined
// alongside the in-package stream tests.

func BuildIndexForTest(h *History) *Indexed              { return buildIndex(h) }
func EqualIndexesForTest(a, b *Indexed) error            { return equalIndexes(a, b) }
func EqualHistoriesForTest(a, b *History) error          { return equalHistories(a, b) }
func EqualToFreshForTest(s *Stream, probe []Event) error { return equalToFresh(s, probe) }
