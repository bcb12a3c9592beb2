// Package tokenpair is the corpus for the tokenpair analyzer: every
// acquired token must be released on every path, by defer or on all
// branches; the error return of AcquireCtx holds nothing.
package tokenpair

import (
	"context"
	"errors"

	"workpool"
)

// DeferPair is the gold-standard pairing: allowed.
func DeferPair(tok *workpool.Tokens) {
	tok.Acquire()
	defer tok.Release()
	work()
}

// DeferLit releases inside a deferred closure: allowed.
func DeferLit(tok *workpool.Tokens) {
	tok.Acquire()
	defer func() {
		work()
		tok.Release()
	}()
	work()
}

// AllBranches releases on every path after the if-init acquire form:
// the error branch holds nothing, and both surviving paths release.
func AllBranches(ctx context.Context, tok *workpool.Tokens) error {
	if err := tok.AcquireCtx(ctx); err != nil {
		return err
	}
	if mode() {
		tok.Release()
		return nil
	}
	work()
	tok.Release()
	return nil
}

// CtxAllPaths uses the standalone assign + error-check form; the check
// branch holds nothing and the fallthrough path releases. Allowed.
func CtxAllPaths(ctx context.Context, tok *workpool.Tokens) error {
	err := tok.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	work()
	tok.Release()
	return nil
}

// LeakOnError returns from the error branch with the token still held.
func LeakOnError(tok *workpool.Tokens) error {
	tok.Acquire() // want "not released on every path"
	if mode() {
		return errors.New("leaks the token")
	}
	tok.Release()
	return nil
}

// LeakAtEnd falls off the end of the function still holding.
func LeakAtEnd(tok *workpool.Tokens) {
	tok.Acquire() // want "not released on every path"
	work()
}

// PanicPath treats the panic as process unwinding, not a leak: allowed.
func PanicPath(tok *workpool.Tokens) {
	tok.Acquire()
	if mode() {
		panic("unwinding releases nothing, but the process is done for")
	}
	tok.Release()
}

// ReleaseAfterBreak holds the token across a loop left by break and
// releases after it: the break lands on the release. Allowed.
func ReleaseAfterBreak(tok *workpool.Tokens, items []int) {
	tok.Acquire()
	for _, it := range items {
		if it < 0 {
			break
		}
		work()
	}
	tok.Release()
}

// PairInLoopBody acquires and releases once per iteration, the shape of
// the repository's step workers. Allowed.
func PairInLoopBody(ctx context.Context, tok *workpool.Tokens, items []int) error {
	for range items {
		if err := tok.AcquireCtx(ctx); err != nil {
			return err
		}
		work()
		tok.Release()
	}
	return nil
}

// ContinueBeforeRelease skips the release: the next iteration acquires
// again, or the loop ends, still holding.
func ContinueBeforeRelease(tok *workpool.Tokens, items []int) {
	for _, it := range items {
		tok.Acquire() // want "not released on every path"
		if it < 0 {
			continue
		}
		tok.Release()
	}
}

// ReacquireWhileHeld never reaches the exit, but its continue path
// comes back round to the acquire still holding.
func ReacquireWhileHeld(tok *workpool.Tokens) {
	for {
		tok.Acquire() // want "not released on every path"
		if mode() {
			continue
		}
		tok.Release()
	}
}

// WorkerForever pairs inside a loop that never exits. Allowed.
func WorkerForever(tok *workpool.Tokens) {
	for {
		tok.Acquire()
		work()
		tok.Release()
	}
}

// ReleaseOnlyInLoop releases inside a loop that may run zero times.
func ReleaseOnlyInLoop(tok *workpool.Tokens, items []int) {
	tok.Acquire() // want "not released on every path"
	for range items {
		tok.Release()
	}
}

func work()      {}
func mode() bool { return false }
