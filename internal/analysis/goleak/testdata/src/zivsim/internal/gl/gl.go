// Package gl exercises goleak's join-evidence forms: WaitGroup
// Add/Done/Wait pairing (including the must-reach requirement on
// Done), result channels received by the spawner, ctx.Done-guarded
// loops, named-worker summaries, receiver-field WaitGroups, the
// companion-waiter idiom, unguarded infinite loops, and the
// //ziv:ignore waiver for deliberate process-lifetime goroutines.
package gl

import (
	"context"
	"sync"
)

func work(int) {}

// WGClean pairs Add, a deferred Done, and Wait: clean.
func WGClean() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work(1)
	}()
	wg.Wait()
}

// WGNoWait Dones a WaitGroup nobody waits on.
func WGNoWait() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine has no provable join path`
		defer wg.Done()
		work(1)
	}()
}

// WGNoAdd waits but never Adds: the join would not block at all.
func WGNoAdd() {
	var wg sync.WaitGroup
	go func() { // want `goroutine joins via wg.Wait but the spawner never calls wg.Add`
		defer wg.Done()
		work(1)
	}()
	wg.Wait()
}

// WGOnePath calls Done on only one branch: not a must-reach signal.
func WGOnePath(b bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine has no provable join path`
		if b {
			wg.Done()
		}
	}()
	wg.Wait()
}

// PanicBranchSignals closes a channel on its panicking branch and
// Dones on the other: a panicking path does not count against the
// must-reach requirement, whatever it signals first: clean.
func PanicBranchSignals(bad bool) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		if bad {
			close(done)
			panic("bad")
		}
		wg.Done()
	}()
	wg.Wait()
}

// PanicBranch is PanicBranchSignals without the close: clean.
func PanicBranch(bad bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		if bad {
			panic("bad")
		}
		wg.Done()
	}()
	wg.Wait()
}

// ChanClose closes a done channel the spawner receives: clean.
func ChanClose() {
	done := make(chan struct{})
	go func() {
		work(1)
		close(done)
	}()
	<-done
}

// ChanSend sends the result on a channel the spawner receives: clean.
func ChanSend() int {
	res := make(chan int, 1)
	go func() {
		res <- 42
	}()
	return <-res
}

// ChanNoRecv signals a channel nobody receives.
func ChanNoRecv() {
	done := make(chan struct{})
	go func() { // want `goroutine has no provable join path`
		close(done)
	}()
}

// ChanRange drains the input and closes the output the spawner
// ranges over: clean.
func ChanRange(jobs chan int) {
	out := make(chan int)
	go func() {
		for v := range jobs {
			out <- v
		}
		close(out)
	}()
	for v := range out {
		work(v)
	}
}

// CtxLoop observes ctx.Done in an exiting select case: clean.
func CtxLoop(ctx context.Context, in chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-in:
				work(v)
			}
		}
	}()
}

// CtxLoopNoExit has the Done case but never leaves the loop: the
// cancellation is not observed as an exit.
func CtxLoopNoExit(ctx context.Context, in chan int) {
	go func() { // want `goroutine loops forever with no ctx.Done case, break, or return`
		for {
			select {
			case <-ctx.Done():
				work(0)
			case v := <-in:
				work(v)
			}
		}
	}()
}

// Forever spins with no exit at all.
func Forever() {
	i := 0
	go func() { // want `goroutine loops forever with no ctx.Done case, break, or return`
		for {
			i++
		}
	}()
	work(i)
}

// helperNoSignal neither Dones nor signals: spawning it is
// fire-and-forget.
func helperNoSignal() {}

// FireForget spawns a named function with no join signal.
func FireForget() {
	go helperNoSignal() // want `goroutine has no provable join path`
}

// pump is a named worker; its summary records the deferred Done on
// parameter 0.
func pump(wg *sync.WaitGroup, n int) {
	defer wg.Done()
	work(n)
}

// NamedClean joins a named worker through its summary: clean.
func NamedClean() {
	var wg sync.WaitGroup
	wg.Add(1)
	go pump(&wg, 1)
	wg.Wait()
}

// NamedNoWait spawns the same worker with no Wait in sight.
func NamedNoWait() {
	var wg sync.WaitGroup
	wg.Add(1)
	go pump(&wg, 1) // want `goroutine has no provable join path`
}

// pool joins workers through a receiver-field WaitGroup.
type pool struct {
	wg sync.WaitGroup
}

func (p *pool) worker() {
	defer p.wg.Done()
	work(1)
}

// Run joins the method spawn through the field summary: clean.
func (p *pool) Run() {
	p.wg.Add(1)
	go p.worker()
	p.wg.Wait()
}

// RunBad spawns the same method but never waits.
func (p *pool) RunBad() {
	p.wg.Add(1)
	go p.worker() // want `goroutine has no provable join path`
}

// Companion reproduces the waiter idiom: workers join a WaitGroup, a
// companion goroutine converts the Wait into a channel close, and the
// spawner selects on it. All three goroutines are joined: clean.
func Companion(jobs chan int) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				work(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case v := <-jobs:
		work(v)
	}
}

// Waived is a deliberate process-lifetime goroutine with a reasoned
// waiver.
func Waived(sig chan struct{}) {
	go func() { //ziv:ignore(goleak) process-lifetime watcher fixture // want:suppressed `goroutine has no provable join path`
		<-sig
		work(1)
	}()
}
