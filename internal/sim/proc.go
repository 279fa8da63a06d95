package sim

import (
	"fmt"
	"runtime/debug"
)

// killedPanic is the sentinel thrown through a process's stack when it is
// killed while parked; the process wrapper recovers it.
type killedPanic struct{}

// Proc is a simulated process: a goroutine whose execution is interleaved
// with the engine under the one-runner-at-a-time discipline. All Proc
// methods that can block (Sleep, park-based primitives) must be called only
// from the process's own goroutine.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	resume chan struct{}
	killed bool
	done   bool
	daemon bool
}

// SetDaemon marks the process as a daemon: a service process expected to
// block forever (storage servers, checkpointer daemons). Daemons are ignored
// by deadlock detection when the event queue drains.
func (p *Proc) SetDaemon(on bool) *Proc {
	p.daemon = on
	return p
}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It may be called before Run or from any process
// or event.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{eng: e, id: e.nextID, name: name, resume: make(chan struct{})}
	e.procs[p.id] = p
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); !ok {
					e.fail(fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack()))
				}
			}
			p.done = true
			delete(e.procs, p.id)
			e.parked <- struct{}{}
		}()
		if p.killed {
			return // killed before first activation
		}
		fn(p)
	}()
	e.atProc(e.now, p)
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process has finished or been killed.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// transfer hands control to p and blocks until p parks or finishes. It must
// run in engine context (from an event callback).
func (e *Engine) transfer(p *Proc) {
	if p.done {
		return // stale wakeup for a finished process
	}
	prev := e.running
	e.running = p
	p.resume <- struct{}{}
	<-e.parked
	e.running = prev
}

// park suspends the calling process until its next scheduled wakeup. Every
// park must be paired with exactly one future wake (a scheduled transfer);
// blocking primitives in this package maintain that pairing.
func (p *Proc) park() {
	p.eng.parked <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killedPanic{})
	}
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake() {
	e := p.eng
	e.atProc(e.now, p)
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.atProc(e.now.Add(d), p)
	p.park()
}

// Kill terminates the process: if it is parked it is woken immediately and
// unwound; if it has not yet started it never runs. A process killing itself
// — which happens when a crash is fired from code the victim is executing,
// e.g. a targeted coordinator crash inside a protocol phase announcement —
// takes effect at its next park rather than unwinding the caller mid-frame;
// crash-aware code must therefore guard continuation on node liveness, not
// on Kill having unwound. Killing a process does not release resources it
// holds, so a process that took a Resource unit with Acquire must not be
// killed before it releases it. The caveat binds only direct Acquire callers:
// the fabric's links are acquired by engine-context callbacks (AcquireFn), so
// no production process parks on or holds a Resource. Kill may be called from
// engine context or from any process.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.wake()
}

// Yield parks the process and immediately reschedules it at the same virtual
// time, letting other events at this instant run first.
func (p *Proc) Yield() {
	p.wake()
	p.park()
}
