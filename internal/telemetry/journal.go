package telemetry

import (
	"errors"
	"sync"
	"time"
)

// Event type names emitted by the hierarchy. The node.* family comes from the
// threshold-crossing detectors, vm.state from placement/migration outcomes,
// hierarchy.* from membership changes.
const (
	EventNodeOverload  = "node.overload"
	EventNodeUnderload = "node.underload"
	EventNodeNormal    = "node.normal"
	EventNodeIdle      = "node.idle"
	EventVMState       = "vm.state"
	EventGMJoin        = "hierarchy.gm-join"
	EventGMFailed      = "hierarchy.gm-failed"
	EventLCJoin        = "hierarchy.lc-join"
	EventLCFailed      = "hierarchy.lc-failed"
	EventGLElected     = "hierarchy.gl-elected"
	EventRebalance     = "hierarchy.rebalance"
	// consolidation.* events are journaled by the online consolidation
	// optimizer: one per completed round and one per migration outcome
	// (executed, failed or cancelled by a trend shift).
	EventConsolidationRound     = "consolidation.round"
	EventConsolidationMigration = "consolidation.migration"
	// EventDecisionTrace is journaled once per finished decision span, with
	// the trace/span IDs in its attributes, so watch streams correlate with
	// GET /v1/traces.
	EventDecisionTrace = "decision.trace"
	// EventMigrationAbandoned is journaled when a migration exhausted its
	// bounded retry budget and the GM gave up on the move.
	EventMigrationAbandoned = "gm.migration-abandoned"
)

// Event is one journal entry. Seq is assigned by the journal and is strictly
// monotonic; At is runtime-relative (virtual time in simulation).
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at"`
	Type   string        `json:"type"`
	Entity string        `json:"entity,omitempty"`
	Attrs  Attrs         `json:"attrs,omitzero"`
}

// ErrLagged terminates a subscription whose consumer fell behind the
// journal's fan-out buffer; the consumer should resubscribe from its last
// seen sequence number (the retained window will fill the gap).
var ErrLagged = errors.New("telemetry: subscriber lagged, events dropped")

// Subscription is one fan-out consumer of the journal.
type Subscription struct {
	j  *Journal
	ch chan Event

	mu     sync.Mutex
	err    error
	closed bool
}

// Events returns the delivery channel. It is closed when the subscription
// ends; check Err to distinguish Close from overflow (ErrLagged).
func (s *Subscription) Events() <-chan Event { return s.ch }

// Err reports why the channel closed (nil after a plain Close).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close detaches the subscription from the journal.
func (s *Subscription) Close() { s.j.unsubscribe(s, nil) }

// closeLocked finalizes the subscription; the journal's lock must be held.
func (s *Subscription) closeLocked(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	s.mu.Unlock()
	close(s.ch)
}

// Journal is a fixed-capacity ring of events with monotonic sequence numbers
// and fan-out subscriptions. Publishes never block: a subscriber that cannot
// keep up is terminated with ErrLagged rather than stalling the hierarchy.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	head, n int
	nextSeq uint64
	subs    map[*Subscription]struct{}
	obs     map[uint64]Observer
	obsSeq  uint64
}

// NewJournal creates a journal retaining the last capacity events
// (default 1024).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{
		buf:     make([]Event, capacity),
		nextSeq: 1,
		subs:    make(map[*Subscription]struct{}),
		obs:     make(map[uint64]Observer),
	}
}

// Observer is a synchronous journal consumer: Publish invokes it on the
// publishing goroutine, after the journal lock is released. Observers must
// be fast and non-blocking (schedule real work via a runtime timer); unlike
// channel subscriptions they cannot lag, which makes them the right hook for
// simulation-deterministic consumers such as the GM's event-driven energy
// manager.
type Observer func(Event)

// Observe registers a synchronous observer and returns its cancel function
// (idempotent).
func (j *Journal) Observe(fn Observer) (cancel func()) {
	j.mu.Lock()
	id := j.obsSeq
	j.obsSeq++
	j.obs[id] = fn
	j.mu.Unlock()
	return func() {
		j.mu.Lock()
		delete(j.obs, id)
		j.mu.Unlock()
	}
}

// publishLocked assigns the next sequence number, retains the event and fans
// it out to every subscription; the journal lock must be held. Subscribers
// that cannot keep up are cut off with ErrLagged.
func (j *Journal) publishLocked(ev Event) Event {
	ev.Seq = j.nextSeq
	j.nextSeq++
	if j.n < len(j.buf) {
		j.buf[(j.head+j.n)%len(j.buf)] = ev
		j.n++
	} else {
		j.buf[j.head] = ev
		j.head = (j.head + 1) % len(j.buf)
	}
	var lagged []*Subscription
	for s := range j.subs {
		select {
		case s.ch <- ev:
		default:
			lagged = append(lagged, s)
		}
	}
	for _, s := range lagged {
		delete(j.subs, s)
		s.closeLocked(ErrLagged)
	}
	return ev
}

// observersLocked snapshots the registered observers (nil when none); the
// journal lock must be held. Observers are invoked after the lock drops.
func (j *Journal) observersLocked() []Observer {
	if len(j.obs) == 0 {
		return nil
	}
	observers := make([]Observer, 0, len(j.obs))
	for _, fn := range j.obs {
		observers = append(observers, fn)
	}
	return observers
}

// Publish assigns the next sequence number, retains the event and fans it out
// to every subscription. It returns the completed event.
func (j *Journal) Publish(ev Event) Event {
	j.mu.Lock()
	ev = j.publishLocked(ev)
	observers := j.observersLocked()
	j.mu.Unlock()
	for _, fn := range observers {
		fn(ev)
	}
	return ev
}

// PublishBatch publishes evs in order under a single lock acquisition — the
// fan-out lock is the per-event cost batching amortizes, so a GM sweep that
// journals dozens of vm.state transitions pays it once. Sequence numbers are
// assigned contiguously in slice order; evs is updated in place with the
// completed events. Observers run after the lock drops, seeing the batch in
// sequence order.
func (j *Journal) PublishBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	j.mu.Lock()
	for i := range evs {
		evs[i] = j.publishLocked(evs[i])
	}
	observers := j.observersLocked()
	j.mu.Unlock()
	for _, fn := range observers {
		for _, ev := range evs {
			fn(ev)
		}
	}
}

// Replay returns up to max retained events with Seq >= from, oldest first
// (max <= 0 means all retained).
func (j *Journal) Replay(from uint64, max int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayLocked(from, max)
}

func (j *Journal) replayLocked(from uint64, max int) []Event {
	var out []Event
	for i := 0; i < j.n; i++ {
		ev := j.buf[(j.head+i)%len(j.buf)]
		if ev.Seq < from {
			continue
		}
		out = append(out, ev)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// FirstSeq returns the oldest retained sequence number (0 when empty).
func (j *Journal) FirstSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		return 0
	}
	return j.buf[j.head].Seq
}

// LastSeq returns the newest assigned sequence number (0 when none).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Subscribe opens a fan-out subscription whose channel first replays the
// retained events with Seq >= from, then receives live events with no gap
// (replay and registration are atomic). buffer is the channel capacity on
// top of the replay backlog (default 256); a consumer that falls further
// behind than that is cut off with ErrLagged.
func (j *Journal) Subscribe(from uint64, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 256
	}
	j.mu.Lock()
	replay := j.replayLocked(from, 0)
	s := &Subscription{j: j, ch: make(chan Event, len(replay)+buffer)}
	for _, ev := range replay {
		s.ch <- ev
	}
	j.subs[s] = struct{}{}
	j.mu.Unlock()
	return s
}

func (j *Journal) unsubscribe(s *Subscription, err error) {
	j.mu.Lock()
	if _, ok := j.subs[s]; ok {
		delete(j.subs, s)
		s.closeLocked(err)
	} else {
		s.closeLocked(err) // already lagged out: Close stays idempotent
	}
	j.mu.Unlock()
}

// Subscribers returns the current fan-out width (instrumentation).
func (j *Journal) Subscribers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs)
}
