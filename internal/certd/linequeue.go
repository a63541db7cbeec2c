package certd

import "sync"

// lineBatch is a run of input lines, texts back to back in one buffer: what
// the reader queues and the drain takes, by swapping two of them, so a
// stream in steady state moves its lines without allocating.
type lineBatch struct {
	text  []byte
	lines []queuedLine
}

type queuedLine struct {
	no  int // input line number
	end int // where its text ends in lineBatch.text; it starts where the line before ends
}

// maxKeptText bounds the text buffer a batch keeps for reuse: one that grew
// for a burst of very long lines is given back to the collector.
const maxKeptText = 1 << 20

func (b *lineBatch) add(no int, text []byte) {
	b.text = append(b.text, text...)
	b.lines = append(b.lines, queuedLine{no: no, end: len(b.text)})
}

func (b *lineBatch) line(i int) (no int, text []byte) {
	start := 0
	if i > 0 {
		start = b.lines[i-1].end
	}
	return b.lines[i].no, b.text[start:b.lines[i].end]
}

func (b *lineBatch) reset() {
	b.text, b.lines = b.text[:0], b.lines[:0]
	if cap(b.text) > maxKeptText {
		b.text = nil
	}
}

// lineQueue is the bounded hand-off between a stream's reader goroutine
// and its drain. The reader pushes lines, at most max of them waiting, and
// hands the queue off when it is about to wait for the connection (or
// finds the queue full); the drain takes everything queued in one swap.
// Both sides therefore meet once per read, not once per line, and the
// drain learns that the input has gone idle — nothing handed off — which
// is when its output leaves. Memory per stream is max lines here, as many
// again in the drain's hands, plus the session's retirement window,
// independent of stream length.
type lineQueue struct {
	max int // lines

	mu sync.Mutex
	// wake is what the reader waits on for room and the drain for a
	// hand-off; never both at once, since the reader hands off before it
	// waits.
	wake   sync.Cond
	fill   lineBatch // pushed and not yet taken
	handed bool      // the drain may take fill
	drops  int       // lines a lossy stream dropped on a full queue
	closed bool      // the reader is done: END, end of input, or err
	err    error
	gone   bool // the drain is done
}

func newLineQueue(max int) *lineQueue {
	q := &lineQueue{max: max}
	q.wake.L = &q.mu
	return q
}

type pushResult int

const (
	pushed        pushResult = iota
	pushStalled              // pushed, after waiting for room
	pushDropped              // lossy and full
	pushAbandoned            // the drain is gone; stop reading
)

// push queues line number no. text is copied.
func (q *lineQueue) push(no int, text []byte, lossy bool) pushResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	res := pushed
	if len(q.fill.lines) >= q.max {
		q.handOffLocked()
		if lossy {
			q.drops++
			return pushDropped
		}
		res = pushStalled
		for len(q.fill.lines) >= q.max && !q.gone {
			q.wake.Wait()
		}
	}
	if q.gone {
		return pushAbandoned
	}
	q.fill.add(no, text)
	return res
}

// handOff lets the drain have what has been pushed. Its signature is
// follow.OnIdle's hook: the reader's scanner calls it before every read of
// the connection.
func (q *lineQueue) handOff() error {
	q.mu.Lock()
	q.handOffLocked()
	q.mu.Unlock()
	return nil
}

func (q *lineQueue) handOffLocked() {
	if len(q.fill.lines) > 0 && !q.handed {
		q.handed = true
		q.wake.Signal()
	}
}

// close ends the input: what is queued stays for the drain, and err (nil
// for END or a clean end of input) is what ended reports.
func (q *lineQueue) close(err error) {
	q.mu.Lock()
	q.closed, q.err = true, err
	q.wake.Signal()
	q.mu.Unlock()
}

// abandon is the drain leaving: a reader waiting for room, or pushing
// later, gets pushAbandoned.
func (q *lineQueue) abandon() {
	q.mu.Lock()
	q.gone = true
	q.wake.Signal()
	q.mu.Unlock()
}

// take swaps everything queued into batch, whose previous content is
// dropped, waiting for a hand-off if there has been none since the last
// take. Before it waits it calls idle: nothing handed off is the input
// gone idle. more is false once the input has ended and been taken whole.
func (q *lineQueue) take(batch *lineBatch, idle func() error) (more bool, err error) {
	q.mu.Lock()
	if !q.handed && !q.closed {
		q.mu.Unlock()
		if err := idle(); err != nil {
			return false, err
		}
		q.mu.Lock()
		for !q.handed && !q.closed {
			q.wake.Wait()
		}
	}
	batch.reset()
	wasFull := len(q.fill.lines) >= q.max
	q.fill, *batch = *batch, q.fill
	q.handed = false
	if wasFull {
		q.wake.Signal() // the reader may be waiting for room
	}
	q.mu.Unlock()
	return len(batch.lines) > 0, nil
}

// ended is for after take has returned more == false: how many lines were
// dropped, and the error that ended the input, if one did.
func (q *lineQueue) ended() (dropped int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.drops, q.err
}
