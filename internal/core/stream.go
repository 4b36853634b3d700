package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kaas/internal/kernels"
)

// stream is one invocation stream's state on the server, allocated once
// per stream: the kernel request and the stream's context. It implements
// context.Context itself, so a warm call derives no context (three
// allocations of context.WithCancel: the context, its cancel closure and,
// once anyone asks, its done channel), and the session's stream table
// holds the stream, not a CancelFunc.
//
// The context is cancelled when the stream ends, by a MsgCancel, by the
// connection's death or by its wire deadline, whichever comes first; the
// first one sets Err. A stream is never reused, so a kernel or batcher
// that keeps the context after the call sees it cancelled, as with
// context.WithCancel.
type stream struct {
	req kernels.Request

	deadline time.Time // zero when the frame carried none

	mu    sync.Mutex
	done  chan struct{} // made by the first Done, or closedChan if cancelled first
	err   error
	timer *time.Timer // fires at deadline
}

// closedChan is the Done channel of a stream cancelled before anyone asked
// for one.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// arm sets the stream's wire deadline, in Unix nanoseconds (zero: none),
// and starts the timer that cancels the stream when it passes. It fails
// when the deadline has already passed, so expired work is rejected
// before it reaches a runner.
func (st *stream) arm(deadlineNanos int64) error {
	if deadlineNanos <= 0 {
		return nil
	}
	st.deadline = time.Unix(0, deadlineNanos)
	wait := time.Until(st.deadline)
	if wait <= 0 {
		return fmt.Errorf("core: %w: deadline passed %v ago",
			context.DeadlineExceeded, (-wait).Round(time.Microsecond))
	}
	st.mu.Lock()
	st.timer = time.AfterFunc(wait, func() { st.cancel(context.DeadlineExceeded) })
	st.mu.Unlock()
	return nil
}

// cancel ends the stream's context with err unless it has already ended.
func (st *stream) cancel(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return
	}
	st.err = err
	if st.done == nil {
		st.done = closedChan
	} else {
		close(st.done)
	}
	if st.timer != nil {
		st.timer.Stop()
	}
}

// Deadline returns the frame's wire deadline, if it carried one.
func (st *stream) Deadline() (time.Time, bool) {
	return st.deadline, !st.deadline.IsZero()
}

// Done returns a channel closed when the stream's context ends. The first
// call on a live stream makes it.
func (st *stream) Done() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done == nil {
		st.done = make(chan struct{})
	}
	return st.done
}

// Err returns context.Canceled or context.DeadlineExceeded once the
// stream's context has ended, nil before.
func (st *stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Value returns nil: a stream's context carries no values.
func (*stream) Value(any) any { return nil }
