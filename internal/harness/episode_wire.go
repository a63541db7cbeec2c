package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"duopacity/internal/histio"
	"duopacity/internal/spec"
)

// An episode report — a certify episode or a soak cell — is most of what a
// farm delivery carries (package checkfarm), so in JSON it is one string
// in a compact grammar instead of an object per verdict:
//
//	episode = flags "|" degraded "|" history *( "|" criterion "|" status "|" reason )
//	flags   = [ "s" ]                        ; s: Skipped
//	status  = ( "o" / "v" / "u" ) [ nodes ]  ; OK, violated, undecided; nodes in decimal, left out when 0
//
// A criterion is its short CLI alias (du, tms2, ...; empty for the zero
// criterion). The history is the report's History in histio text, empty
// for none: a certify shard ships none, a soak cell its own. The text
// fields — degraded, history, reason — escape with %HH every byte that is
// a control byte, not ASCII, or one of %|"\<>&, so any bytes round-trip
// (histories carry newlines, reasons are free text) and the JSON string
// around the grammar needs no escape of its own. A verdict's witness
// never crosses: it renders from the checked history. An episode of seven
// all-OK verdicts is about 70 bytes.

// criterionAliases maps a criterion to its alias in the grammar.
var criterionAliases = func() []string {
	aliases := []string{""}
	for c := spec.Criterion(1); ; c++ {
		a, ok := spec.CriterionAlias(c)
		if !ok {
			return aliases
		}
		aliases = append(aliases, a)
	}
}()

// MarshalJSON encodes the report as one JSON string in the compact
// grammar. It fails rather than drop what the grammar does not carry: a
// verdict of an unknown criterion, or one both OK and undecided.
func (r EpisodeReport) MarshalJSON() ([]byte, error) {
	b := []byte{'"'}
	if r.Skipped {
		b = append(b, 's')
	}
	b = append(b, '|')
	b = appendEscaped(b, r.Degraded)
	b = append(b, '|')
	if r.History != nil {
		b = appendEscaped(b, histio.FormatString(r.History))
	}
	for _, v := range r.Verdicts {
		if int(v.Criterion) >= len(criterionAliases) {
			return nil, fmt.Errorf("harness: episode verdict of unknown criterion %d", v.Criterion)
		}
		if v.OK && v.Undecided {
			return nil, fmt.Errorf("harness: episode verdict %+v does not fit the episode grammar", v)
		}
		b = append(b, '|')
		b = append(b, criterionAliases[v.Criterion]...)
		switch {
		case v.OK:
			b = append(b, "|o"...)
		case v.Undecided:
			b = append(b, "|u"...)
		default:
			b = append(b, "|v"...)
		}
		if v.Nodes != 0 {
			b = strconv.AppendInt(b, int64(v.Nodes), 10)
		}
		b = append(b, '|')
		b = appendEscaped(b, v.Reason)
	}
	return append(b, '"'), nil
}

// UnmarshalJSON decodes MarshalJSON's string, parsing the history. A
// string that is not the grammar, or whose history does not parse, is an
// error; nothing of it is kept.
func (r *EpisodeReport) UnmarshalJSON(data []byte) error {
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return fmt.Errorf("harness: episode: %w", err)
	}
	ep, err := parseEpisode(text)
	if err != nil {
		return err
	}
	*r = ep
	return nil
}

var errEpisodeGrammar = errors.New("harness: malformed episode")

// parseEpisode decodes an episode from the compact grammar.
func parseEpisode(text string) (EpisodeReport, error) {
	var r EpisodeReport
	field := func() (string, bool) {
		i := strings.IndexByte(text, '|')
		if i < 0 {
			f := text
			text = ""
			return f, false
		}
		f := text[:i]
		text = text[i+1:]
		return f, true
	}
	flags, more := field()
	switch {
	case !more:
		return r, errEpisodeGrammar
	case flags == "s":
		r.Skipped = true
	case flags != "":
		return r, fmt.Errorf("%w: flags %q", errEpisodeGrammar, flags)
	}
	var err error
	raw, more := field()
	if !more {
		return r, errEpisodeGrammar
	}
	if r.Degraded, err = unescape(raw); err != nil {
		return r, err
	}
	raw, more = field()
	if raw != "" {
		src, err := unescape(raw)
		if err != nil {
			return r, err
		}
		h, err := histio.ParseString(src)
		if err != nil {
			return r, fmt.Errorf("%w: history: %v", errEpisodeGrammar, err)
		}
		if h.Len() > 0 { // a history of no events is none, as it encodes
			r.History = h
		}
	}
	if more {
		// Sized for one verdict per criterion, not by the input: a text of
		// bars must not make the decoder allocate for verdicts it never reads.
		r.Verdicts = make([]spec.Verdict, 0, len(criterionAliases))
	}
	for more {
		var v spec.Verdict
		alias, ok := field()
		if !ok {
			return r, errEpisodeGrammar
		}
		if v.Criterion, ok = criterionOfAlias(alias); !ok {
			return r, fmt.Errorf("%w: criterion %q", errEpisodeGrammar, alias)
		}
		status, ok := field()
		if !ok || status == "" {
			return r, errEpisodeGrammar
		}
		switch status[0] {
		case 'o':
			v.OK = true
		case 'u':
			v.Undecided = true
		case 'v':
		default:
			return r, fmt.Errorf("%w: status %q", errEpisodeGrammar, status)
		}
		if nodes := status[1:]; nodes != "" {
			n, err := strconv.Atoi(nodes)
			if err != nil || nodes[0] == '+' || nodes[0] == '0' || n == 0 {
				return r, fmt.Errorf("%w: node count %q", errEpisodeGrammar, nodes)
			}
			v.Nodes = n
		}
		raw, more = field()
		if v.Reason, err = unescape(raw); err != nil {
			return r, err
		}
		r.Verdicts = append(r.Verdicts, v)
	}
	return r, nil
}

func criterionOfAlias(alias string) (spec.Criterion, bool) {
	for c, a := range criterionAliases {
		if a == alias {
			return spec.Criterion(c), true
		}
	}
	return 0, false
}

// mustEscape marks the bytes a text field carries as %HH.
var mustEscape = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c < 0x20 || c >= 0x7f || strings.IndexByte(`%|"\<>&`, byte(c)) >= 0
	}
	return t
}()

func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; mustEscape[c] {
			b = append(b, '%', hex[c>>4], hex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// unescape decodes a text field. A '%' not followed by two hex digits is
// an error; any other byte stands for itself.
func unescape(s string) (string, error) {
	i := strings.IndexByte(s, '%')
	if i < 0 {
		return s, nil
	}
	b := make([]byte, 0, len(s))
	for ; i >= 0; i = strings.IndexByte(s, '%') {
		b = append(b, s[:i]...)
		if i+2 >= len(s) {
			return "", fmt.Errorf("%w: cut-off escape %q", errEpisodeGrammar, s[i:])
		}
		hi, lo := unhex(s[i+1]), unhex(s[i+2])
		if hi < 0 || lo < 0 {
			return "", fmt.Errorf("%w: escape %q", errEpisodeGrammar, s[i:i+3])
		}
		b = append(b, byte(hi<<4|lo))
		s = s[i+3:]
	}
	return string(append(b, s...)), nil
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	}
	return -1
}
