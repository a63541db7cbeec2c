package checkfarm

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"duopacity/internal/spec"
)

// An episode — a certify episode or a soak cell — is most of what a
// certify or soak delivery carries, so it travels as one JSON string in a
// compact grammar instead of an object per verdict:
//
//	episode = flags "|" degraded "|" history *( "|" criterion "|" status "|" reason )
//	flags   = [ "s" ]                        ; s: Skipped
//	status  = ( "o" / "v" / "u" ) [ nodes ]  ; OK, violated, undecided; nodes in decimal, left out when 0
//
// A criterion is its short CLI alias (du, tms2, ...; empty for the zero
// criterion). The text fields — degraded, history, reason — escape with
// %HH every byte that is a control byte, not ASCII, or one of %|"\<>&, so
// any bytes round-trip (soak histories carry newlines, reasons are free
// text) and the JSON string around the grammar needs no escape of its
// own. An episode of seven all-OK verdicts is about 70 bytes.

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

// MarshalJSON encodes the episode as one JSON string in the compact
// grammar. It fails rather than drop a field the grammar does not carry:
// an episode verdict with witness text, or one both OK and undecided.
func (w WireEpisode) MarshalJSON() ([]byte, error) {
	b := []byte{'"'}
	if w.Skipped {
		b = append(b, 's')
	}
	b = append(b, '|')
	b = appendEscaped(b, w.Degraded)
	b = append(b, '|')
	b = appendEscaped(b, w.History)
	for _, v := range w.Verdicts {
		if int(v.Criterion) >= len(criterionAliases) {
			return nil, fmt.Errorf("checkfarm: episode verdict of unknown criterion %d", v.Criterion)
		}
		if v.Witness != "" || (v.OK && v.Undecided) {
			return nil, fmt.Errorf("checkfarm: episode verdict %+v does not fit the episode grammar", v)
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

// UnmarshalJSON decodes MarshalJSON's string. A string that is not the
// grammar is an error; nothing of it is kept.
func (w *WireEpisode) UnmarshalJSON(data []byte) error {
	var text string
	if err := json.Unmarshal(data, &text); err != nil {
		return fmt.Errorf("checkfarm: episode: %w", err)
	}
	ep, err := parseWireEpisode(text)
	if err != nil {
		return err
	}
	*w = ep
	return nil
}

var errEpisodeGrammar = errors.New("checkfarm: malformed episode")

// parseWireEpisode decodes an episode from the compact grammar.
func parseWireEpisode(text string) (WireEpisode, error) {
	var w WireEpisode
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
		return w, errEpisodeGrammar
	case flags == "s":
		w.Skipped = true
	case flags != "":
		return w, fmt.Errorf("%w: flags %q", errEpisodeGrammar, flags)
	}
	var err error
	raw, more := field()
	if !more {
		return w, errEpisodeGrammar
	}
	if w.Degraded, err = unescape(raw); err != nil {
		return w, err
	}
	raw, more = field()
	if w.History, err = unescape(raw); err != nil {
		return w, err
	}
	if more {
		// Sized for one verdict per criterion, not by the input: a text of
		// bars must not make the decoder allocate for verdicts it never reads.
		w.Verdicts = make([]WireVerdict, 0, len(criterionAliases))
	}
	for more {
		var v WireVerdict
		alias, ok := field()
		if !ok {
			return w, errEpisodeGrammar
		}
		if v.Criterion, ok = criterionOfAlias(alias); !ok {
			return w, fmt.Errorf("%w: criterion %q", errEpisodeGrammar, alias)
		}
		status, ok := field()
		if !ok || status == "" {
			return w, errEpisodeGrammar
		}
		switch status[0] {
		case 'o':
			v.OK = true
		case 'u':
			v.Undecided = true
		case 'v':
		default:
			return w, fmt.Errorf("%w: status %q", errEpisodeGrammar, status)
		}
		if nodes := status[1:]; nodes != "" {
			n, err := strconv.Atoi(nodes)
			if err != nil || nodes[0] == '+' || nodes[0] == '0' || n == 0 {
				return w, fmt.Errorf("%w: node count %q", errEpisodeGrammar, nodes)
			}
			v.Nodes = n
		}
		raw, more = field()
		if v.Reason, err = unescape(raw); err != nil {
			return w, err
		}
		w.Verdicts = append(w.Verdicts, v)
	}
	return w, nil
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
