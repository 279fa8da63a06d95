package sim

// Gate is a one-shot synchronization point. Processes Wait until some event
// or process calls Open; waits after Open return immediately. The zero value
// is unusable; create gates with NewGate.
type Gate struct {
	eng     *Engine
	open    bool
	waiters []*Proc
}

// NewGate returns a closed gate on engine e.
func NewGate(e *Engine) *Gate { return &Gate{eng: e} }

// Opened reports whether Open has been called.
func (g *Gate) Opened() bool { return g.open }

// Wait parks p until the gate opens. Returns immediately if already open.
func (g *Gate) Wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park()
}

// Open opens the gate, waking all waiters at the current virtual time. It
// may be called from engine context or from a process.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		w.wake()
	}
	g.waiters = nil
}

// Resource is a FIFO-granted counted resource (capacity 1 gives mutual
// exclusion). Waiters are either parked processes (Acquire) or engine-context
// callbacks (AcquireFn); both kinds share one FIFO queue, and a grant to
// either costs exactly one scheduled event. The fabric's links are callback
// resources, so no production process parks on a Resource. A process that
// took a unit with Acquire must not be killed before it releases it (see
// Proc.Kill); a killed process still queued is skipped.
type Resource struct {
	eng   *Engine
	cap   int
	inUse int
	queue []waiter
	head  int // index of the oldest live entry of queue

	// Busy accounting for utilization statistics.
	busySince Time
	busyTotal Duration
}

// waiter is one queued acquirer: a parked process, or the callback to run
// once the unit is granted.
type waiter struct {
	proc *Proc
	fn   func()
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, cap: capacity}
}

// Acquire obtains one unit of the resource, parking p in FIFO order if none
// is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.grant()
		return
	}
	r.queue = append(r.queue, waiter{proc: p})
	p.park()
	// Woken by Release, which already performed the grant accounting.
}

// AcquireFn is the callback twin of Acquire for engine-context state
// machines. If a unit is free it is granted at once and AcquireFn returns
// true without calling fn; the caller continues synchronously. Otherwise fn
// joins the FIFO queue and AcquireFn returns false: a later Release grants the
// unit and schedules fn at that instant — the same single event a parked
// process's wakeup would take, so swapping a process acquirer for a callback
// one leaves the event sequence unchanged.
func (r *Resource) AcquireFn(fn func()) (grantedNow bool) {
	if r.inUse < r.cap {
		r.grant()
		return true
	}
	r.queue = append(r.queue, waiter{fn: fn})
	return false
}

// TryAcquire obtains a unit if one is free, without blocking.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.grant()
		return true
	}
	return false
}

func (r *Resource) grant() {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse++
}

// Release returns one unit and hands it to the head of the queue, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
	if r.inUse == 0 {
		r.busyTotal += r.eng.now.Sub(r.busySince)
	}
	for r.head < len(r.queue) {
		w := r.queue[r.head]
		r.pop()
		if w.proc != nil && (w.proc.done || w.proc.killed) {
			continue
		}
		r.grant()
		if w.fn != nil {
			r.eng.At(r.eng.now, w.fn)
		} else {
			w.proc.wake()
		}
		return
	}
}

// pop drops the queue's oldest entry. The backing array is reused rather
// than resliced away, so a link under sustained contention queues without
// allocating: it rewinds when the queue drains and compacts once the dead
// prefix outgrows the live part.
func (r *Resource) pop() {
	r.queue[r.head] = waiter{}
	r.head++
	switch live := len(r.queue) - r.head; {
	case live == 0:
		r.queue, r.head = r.queue[:0], 0
	case r.head > live:
		copy(r.queue, r.queue[r.head:])
		clear(r.queue[live:])
		r.queue, r.head = r.queue[:live], 0
	}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters queued to acquire.
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// BusyTime returns the total virtual time during which at least one unit was
// held, up to the last transition to idle.
func (r *Resource) BusyTime() Duration { return r.busyTotal }

// Mailbox is an unbounded FIFO queue of items with at most one waiting
// consumer, supporting selective receive: the consumer scans queued items
// and removes an arbitrary match. Producers never block.
type Mailbox[T any] struct {
	eng    *Engine
	items  []T
	waiter *Proc
}

// NewMailbox returns an empty mailbox on engine e.
func NewMailbox[T any](e *Engine) *Mailbox[T] { return &Mailbox[T]{eng: e} }

// Put appends v and wakes the waiting consumer, if any. It may be called
// from engine context or from any process.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if w := m.waiter; w != nil {
		m.waiter = nil
		w.wake()
	}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// TakeMatch removes and returns the first item satisfying match.
func (m *Mailbox[T]) TakeMatch(match func(T) bool) (T, bool) {
	for i, v := range m.items {
		if match(v) {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// AwaitPut parks p until the next Put. The caller must re-scan the queue on
// return: the wakeup only signals that something arrived. At most one
// process may wait on a mailbox at a time.
func (m *Mailbox[T]) AwaitPut(p *Proc) {
	if m.waiter != nil && (m.waiter.done || m.waiter.killed) {
		m.waiter = nil // a killed process left a dangling registration
	}
	if m.waiter != nil {
		panic("sim: mailbox already has a waiter")
	}
	m.waiter = p
	p.park()
}

// Get removes and returns the first item satisfying match, parking p until
// one arrives.
func (m *Mailbox[T]) Get(p *Proc, match func(T) bool) T {
	for {
		if v, ok := m.TakeMatch(match); ok {
			return v
		}
		m.AwaitPut(p)
	}
}

// GetAny removes and returns the oldest item, parking p until one arrives.
func (m *Mailbox[T]) GetAny(p *Proc) T {
	return m.Get(p, func(T) bool { return true })
}

// Items returns a copy of the queued items in FIFO order, without removing
// them (used to capture in-transit messages as channel state).
func (m *Mailbox[T]) Items() []T {
	return append([]T(nil), m.items...)
}

// ForEach visits the queued items in FIFO order without copying the queue.
// fn must not Put, take, or park — the zero-copy variant of Items for
// observers that only read.
func (m *Mailbox[T]) ForEach(fn func(T)) {
	for _, v := range m.items {
		fn(v)
	}
}

// Drain removes and returns all queued items.
func (m *Mailbox[T]) Drain() []T {
	items := m.items
	m.items = nil
	return items
}
