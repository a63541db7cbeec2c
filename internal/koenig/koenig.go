// Package koenig makes the safety proofs of the paper executable on
// bounded instances:
//
//   - RestrictSerialization is the construction of Lemma 1: from a
//     serialization S of H it derives, for any prefix H^i, a serialization
//     S^i whose transaction sequence is a subsequence of seq(S).
//   - LiveSetOrder is the reordering procedure of Lemma 4: it transforms a
//     serialization into one that places every transaction before all
//     transactions that succeed its live set (T_k ≺LS T_m ⟹ T_k <_S T_m).
//   - Graph builds the rooted directed graph G_H from the proof of
//     Theorem 5 — vertices are (prefix, serialization) pairs, with an edge
//     when the serializations agree on the transactions already complete —
//     and checks the properties König's Path Lemma needs: finite
//     branching and connectivity; DeepestPath extracts the path whose
//     infinite analogue the proof uses to assemble a serialization of the
//     limit history.
package koenig

import (
	"fmt"

	"duopacity/internal/history"
	"duopacity/internal/spec"
)

// RestrictSerialization implements Lemma 1's construction: given a
// du-opaque serialization s of h, it returns a serialization of the prefix
// of h of length i whose sequence is the subsequence of seq(s) restricted
// to the prefix's transactions, with each transaction completed per the
// prefix's status (keeping s's commit decision for transactions whose tryC
// is pending in the prefix).
func RestrictSerialization(h *history.History, s *history.Seq, i int) (*history.Seq, error) {
	// The prefix's per-transaction views are computed by Prefix itself, and
	// SeqFromHistory completes them without the dense index: building it
	// (real-time predecessors included) would cost more than it saves,
	// since each restriction touches each transaction once.
	hi := h.Prefix(i)
	commit := make(map[history.TxnID]bool)
	var order []history.TxnID
	for idx := range s.Txns {
		st := &s.Txns[idx]
		t := hi.Txn(st.ID)
		if t == nil {
			continue // transaction not yet started in the prefix
		}
		order = append(order, st.ID)
		if t.CommitPending() {
			commit[st.ID] = st.Committed()
		}
	}
	si, err := history.SeqFromHistory(hi, order, commit)
	if err != nil {
		return nil, fmt.Errorf("koenig: restriction failed: %w", err)
	}
	return si, nil
}

// LiveSetOrder implements the reordering of Lemma 4: starting from seq(s),
// each transaction T_k is moved to immediately precede the earliest
// transaction T_l with T_k ≺LS T_l whenever T_l currently precedes it. The
// resulting sequence serializes every transaction before the transactions
// that succeed its live set.
func LiveSetOrder(h *history.History, s *history.Seq) (*history.Seq, error) {
	order := s.Order()
	commit := commitDecisions(s)
	pos := func(k history.TxnID) int {
		for i, id := range order {
			if id == k {
				return i
			}
		}
		return -1
	}
	for _, k := range h.Txns() {
		// Earliest transaction in the current order succeeding k's live set.
		earliest := -1
		for i, m := range order {
			if m != k && h.SucceedsLiveSet(k, m) {
				earliest = i
				break
			}
		}
		if earliest < 0 {
			continue
		}
		kp := pos(k)
		if kp < earliest {
			continue // already before T_l
		}
		// Move k to immediately precede order[earliest].
		id := order[kp]
		copy(order[earliest+1:kp+1], order[earliest:kp])
		order[earliest] = id
	}
	out, err := history.SeqFromHistory(h, order, commit)
	if err != nil {
		return nil, fmt.Errorf("koenig: live-set reorder failed: %w", err)
	}
	return out, nil
}

func commitDecisions(s *history.Seq) map[history.TxnID]bool {
	m := make(map[history.TxnID]bool, len(s.Txns))
	for i := range s.Txns {
		m[s.Txns[i].ID] = s.Txns[i].Committed()
	}
	return m
}

// Vertex is a node of G_H: a prefix length and one du-opaque serialization
// of that prefix.
type Vertex struct {
	Level    int // prefix length
	S        *history.Seq
	Children []*Vertex
}

// Graph is the bounded construction of G_H from Theorem 5's proof, with
// one level per prefix length of h (levels at non-response events are
// skipped: the serialization set does not change there).
type Graph struct {
	H      *history.History
	Root   *Vertex
	Levels [][]*Vertex
}

// BuildGraph constructs G_H for the history h, sampling at most perLevel
// serializations per prefix by enumeration and then closing the vertex set
// downwards under Lemma 1: the restriction of every level-(i+1)
// serialization is added to level i, so — exactly as in the paper's proof
// of connectivity — every vertex has a predecessor all the way to the
// root. The root is the empty prefix with the empty serialization. An edge
// connects (H^i, S^i) to (H^j, S^j) of the next level when
// cseq_i(S^i) = cseq_i(S^j) — the serializations agree on the transactions
// complete in H^i with respect to H.
func BuildGraph(h *history.History, perLevel int) (*Graph, error) {
	// Prefix lengths that form the levels: response boundaries plus the
	// full history (invocation-only extensions have the same
	// serializations).
	var levels []int
	for i := 1; i <= h.Len(); i++ {
		if h.At(i-1).Kind == history.Res || i == h.Len() {
			levels = append(levels, i)
		}
	}

	// Sample serializations per level by enumeration.
	byLevel := make([][]*Vertex, len(levels))
	for li, plen := range levels {
		var vs []*Vertex
		spec.AllDUSerializations(h.Prefix(plen), perLevel, func(s *history.Seq) bool {
			vs = append(vs, &Vertex{Level: plen, S: s})
			return true
		})
		if len(vs) == 0 {
			return nil, fmt.Errorf("koenig: prefix of length %d has no du-opaque serialization", plen)
		}
		byLevel[li] = vs
	}

	// Close downwards under Lemma 1 restrictions (dedupe by rendering).
	for li := len(levels) - 1; li > 0; li-- {
		lower := levels[li-1]
		seen := make(map[string]bool, len(byLevel[li-1]))
		for _, v := range byLevel[li-1] {
			seen[v.S.String()] = true
		}
		for _, v := range byLevel[li] {
			r, err := RestrictSerialization(h, v.S, lower)
			if err != nil {
				return nil, err
			}
			if key := r.String(); !seen[key] {
				seen[key] = true
				byLevel[li-1] = append(byLevel[li-1], &Vertex{Level: lower, S: r})
			}
		}
	}

	g := &Graph{H: h, Root: &Vertex{Level: 0, S: &history.Seq{}}}
	g.Levels = append(g.Levels, []*Vertex{g.Root})
	prev := []*Vertex{g.Root}
	prevLevel := 0
	for li := range levels {
		vs := byLevel[li]
		for _, p := range prev {
			pc := completeSeq(h, p.S, prevLevel)
			for _, v := range vs {
				if sliceEq(pc, completeSeq(h, v.S, prevLevel)) {
					p.Children = append(p.Children, v)
				}
			}
		}
		g.Levels = append(g.Levels, vs)
		prev = vs
		prevLevel = levels[li]
	}
	return g, nil
}

// completeSeq computes cseq_i(S): the subsequence of seq(S) restricted to
// transactions that are complete in H^i with respect to H — their last
// event in H is a response and lies within the first i events.
func completeSeq(h *history.History, s *history.Seq, i int) []history.TxnID {
	ix := h.Index()
	var out []history.TxnID
	for idx := range s.Txns {
		k := s.Txns[idx].ID
		ti := ix.TxnIndexOf(k)
		if ti < 0 {
			continue
		}
		if t := &ix.Txns[ti]; t.Last < i && t.Complete {
			out = append(out, k)
		}
	}
	return out
}

func sliceEq(a, b []history.TxnID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Connected reports whether every vertex is reachable from the root.
func (g *Graph) Connected() bool {
	reach := map[*Vertex]bool{g.Root: true}
	frontier := []*Vertex{g.Root}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, c := range v.Children {
			if !reach[c] {
				reach[c] = true
				frontier = append(frontier, c)
			}
		}
	}
	for _, lvl := range g.Levels {
		for _, v := range lvl {
			if !reach[v] {
				return false
			}
		}
	}
	return true
}

// MaxOutDegree returns the largest out-degree in the graph (finite
// branching is immediate for bounded instances; the value documents how
// bushy the instance is).
func (g *Graph) MaxOutDegree() int {
	max := 0
	for _, lvl := range g.Levels {
		for _, v := range lvl {
			if d := len(v.Children); d > max {
				max = d
			}
		}
	}
	return max
}

// DeepestPath returns a root-to-leaf path reaching the last level — the
// bounded analogue of the infinite path König's Path Lemma yields in the
// proof of Theorem 5. It returns nil if no such path exists.
func (g *Graph) DeepestPath() []*Vertex {
	target := len(g.Levels) - 1
	var path []*Vertex
	var dfs func(v *Vertex, depth int) bool
	dfs = func(v *Vertex, depth int) bool {
		path = append(path, v)
		if depth == target {
			return true
		}
		for _, c := range v.Children {
			if dfs(c, depth+1) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if dfs(g.Root, 0) {
		return path
	}
	return nil
}
