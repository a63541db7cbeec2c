package histio

import (
	"fmt"
	"strconv"
	"strings"

	"duopacity/internal/history"
)

// refAppendEvents is the line parser as it was before it read event lines
// token by token: strings.Fields over the whole line, then the arity
// checks on the field count. AppendEvents must match it event for event
// and error message for error message.
func refAppendEvents(dst []history.Event, line string) ([]history.Event, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	f := strings.Fields(line)
	n := len(f)
	if n == 0 {
		return dst, nil
	}
	switch f[0] {
	case "inv", "res":
		e, err := refParseEvent(f, n)
		if err != nil {
			return dst, err
		}
		return append(dst, e), nil
	case "read":
		// read <txn> <obj> <value>|A
		if n != 4 {
			return dst, fmt.Errorf("read wants 3 arguments, got %d", n-1)
		}
		k, err := refTxn(f[1])
		if err != nil {
			return dst, err
		}
		res := history.Event{Kind: history.Res, Op: history.OpRead, Txn: k, Out: history.OutAbort}
		if f[3] != "A" {
			if res.Val, err = refValue(f[3]); err != nil {
				return dst, err
			}
			res.Out = history.OutOK
		}
		res.Obj = history.Var(f[2])
		return append(dst, history.Event{Kind: history.Inv, Op: history.OpRead, Txn: k, Obj: res.Obj}, res), nil
	case "write":
		// write <txn> <obj> <value> [A]
		if n != 4 && n != 5 {
			return dst, fmt.Errorf("write wants 3 or 4 arguments, got %d", n-1)
		}
		k, err := refTxn(f[1])
		if err != nil {
			return dst, err
		}
		v, err := refValue(f[3])
		if err != nil {
			return dst, err
		}
		out := history.OutOK
		if n == 5 {
			if f[4] != "A" {
				return dst, fmt.Errorf("write outcome must be A, got %q", f[4])
			}
			out = history.OutAbort
		}
		obj := history.Var(f[2])
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v},
			history.Event{Kind: history.Res, Op: history.OpWrite, Txn: k, Obj: obj, Arg: v, Out: out}), nil
	case "commit":
		// commit <txn> [A]
		if n != 2 && n != 3 {
			return dst, fmt.Errorf("commit wants 1 or 2 arguments, got %d", n-1)
		}
		k, err := refTxn(f[1])
		if err != nil {
			return dst, err
		}
		out := history.OutCommit
		if n == 3 {
			if f[2] != "A" {
				return dst, fmt.Errorf("commit outcome must be A, got %q", f[2])
			}
			out = history.OutAbort
		}
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpTryCommit, Txn: k},
			history.Event{Kind: history.Res, Op: history.OpTryCommit, Txn: k, Out: out}), nil
	case "abort":
		if n != 2 {
			return dst, fmt.Errorf("abort wants 1 argument, got %d", n-1)
		}
		k, err := refTxn(f[1])
		if err != nil {
			return dst, err
		}
		return append(dst,
			history.Event{Kind: history.Inv, Op: history.OpTryAbort, Txn: k},
			history.Event{Kind: history.Res, Op: history.OpTryAbort, Txn: k, Out: history.OutAbort}), nil
	default:
		return dst, fmt.Errorf("unknown directive %q", f[0])
	}
}

// refParseEvent parses an event line: f holds its fields, n counts them.
func refParseEvent(f []string, n int) (history.Event, error) {
	if n < 3 {
		return history.Event{}, fmt.Errorf("event line too short")
	}
	kind := history.Inv
	if f[0] == "res" {
		kind = history.Res
	}
	k, err := refTxn(f[2])
	if err != nil {
		return history.Event{}, err
	}
	e := history.Event{Kind: kind, Txn: k}
	switch f[1] {
	case "read":
		e.Op = history.OpRead
		if n < 4 {
			return e, fmt.Errorf("read event wants an object")
		}
		if kind == history.Inv {
			if n != 4 {
				return e, fmt.Errorf("inv read wants 2 arguments")
			}
			e.Obj = history.Var(f[3])
			return e, nil
		}
		if n != 5 {
			return e, fmt.Errorf("res read wants 3 arguments")
		}
		if f[4] == "A" {
			e.Out = history.OutAbort
		} else {
			v, err := refValue(f[4])
			if err != nil {
				return e, err
			}
			e.Val, e.Out = v, history.OutOK
		}
		e.Obj = history.Var(f[3])
		return e, nil
	case "write":
		e.Op = history.OpWrite
		if n < 5 {
			return e, fmt.Errorf("write event wants object and value")
		}
		v, err := refValue(f[4])
		if err != nil {
			return e, err
		}
		e.Arg = v
		if kind == history.Inv {
			if n != 5 {
				return e, fmt.Errorf("inv write wants 3 arguments")
			}
			e.Obj = history.Var(f[3])
			return e, nil
		}
		if n != 6 {
			return e, fmt.Errorf("res write wants 4 arguments")
		}
		switch f[5] {
		case "ok":
			e.Out = history.OutOK
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("write outcome must be ok or A, got %q", f[5])
		}
		e.Obj = history.Var(f[3])
		return e, nil
	case "tryc":
		e.Op = history.OpTryCommit
		if kind == history.Inv {
			if n != 3 {
				return e, fmt.Errorf("inv tryc wants 1 argument")
			}
			return e, nil
		}
		if n != 4 {
			return e, fmt.Errorf("res tryc wants 2 arguments")
		}
		switch f[3] {
		case "C":
			e.Out = history.OutCommit
		case "A":
			e.Out = history.OutAbort
		default:
			return e, fmt.Errorf("tryc outcome must be C or A, got %q", f[3])
		}
		return e, nil
	case "trya":
		e.Op = history.OpTryAbort
		if kind == history.Inv {
			if n != 3 {
				return e, fmt.Errorf("inv trya wants 1 argument")
			}
			return e, nil
		}
		if n != 4 || f[3] != "A" {
			return e, fmt.Errorf("res trya wants outcome A")
		}
		e.Out = history.OutAbort
		return e, nil
	default:
		return e, fmt.Errorf("unknown operation %q", f[1])
	}
}

func refTxn(s string) (history.TxnID, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid transaction id %q", s)
	}
	return history.TxnID(n), nil
}

func refValue(s string) (history.Value, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid value %q", s)
	}
	return history.Value(n), nil
}
