// Package transport is the in-process message fabric connecting hierarchy
// components in simulation mode. It models what the paper's deployment gets
// from the data-center network: unicast RPC between components (the paper's
// Java RESTful web services), UDP-multicast heartbeat groups (Section II-A:
// "multicast-based heartbeat protocols are implemented at all levels of the
// hierarchy"), message latency, and — for the fault-tolerance experiments —
// crash failures, message loss and network partitions.
//
// The same component code talks to this bus or to the real HTTP transport in
// internal/rest through identical request/response semantics, so behaviour
// measured on the bus transfers to the deployed system.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"snooze/internal/simkernel"
)

// Address identifies a bus endpoint (one hierarchy component).
type Address string

// Errors surfaced to callers.
var (
	// ErrUnreachable means the destination is not registered, crashed, or
	// partitioned away; the paper's components observe this as a timed-out
	// REST call.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrTimeout means no response arrived within the call timeout.
	ErrTimeout = errors.New("transport: request timed out")
)

// Message is one delivered payload.
type Message struct {
	From    Address
	To      Address
	Kind    string
	Payload any
}

// Request wraps an inbound message that may be responded to. Respond may be
// called at most once; later calls are ignored (like writing to a closed
// HTTP connection).
type Request struct {
	Message
	respond func(payload any, err error)
	once    sync.Once
}

// Respond sends a successful reply to the caller.
func (r *Request) Respond(payload any) {
	r.once.Do(func() {
		if r.respond != nil {
			r.respond(payload, nil)
		}
	})
}

// RespondErr sends an error reply to the caller.
func (r *Request) RespondErr(err error) {
	r.once.Do(func() {
		if r.respond != nil {
			r.respond(nil, err)
		}
	})
}

// OneWay reports whether the sender expects no response.
func (r *Request) OneWay() bool { return r.respond == nil }

// Handler processes inbound requests for one endpoint.
type Handler func(req *Request)

// Config parameterizes a Bus.
type Config struct {
	// Latency is the one-way delivery delay applied to every message.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed seeds the bus's private RNG (jitter, drops).
	Seed int64
}

// Bus is the in-process fabric. Safe for concurrent use; in simulation mode
// all activity happens on the kernel goroutine anyway.
type Bus struct {
	rt  simkernel.Runtime
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	handlers   map[Address]Handler
	groups     map[string]map[Address]struct{}
	down       map[Address]struct{}
	partition  map[Address]int // partition group id; addresses in different non-zero groups cannot talk
	dropProb   float64
	delivered  uint64
	dropped    uint64
	unreliable uint64 // messages lost to injected drop probability

	// Gray-failure injection (see SetLinkDelay, SetDuplication, BlockDirected):
	// failures the crash-stop model cannot express — endpoints that are slow
	// or duplicating but alive, and one-way reachability loss.
	linkDelay map[Address]time.Duration
	dupProb   map[Address]float64
	blocked   map[Address]map[Address]struct{}
}

// NewBus creates a bus on the given runtime.
func NewBus(rt simkernel.Runtime, cfg Config) *Bus {
	return &Bus{
		rt:        rt,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		handlers:  make(map[Address]Handler),
		groups:    make(map[string]map[Address]struct{}),
		down:      make(map[Address]struct{}),
		partition: make(map[Address]int),
		linkDelay: make(map[Address]time.Duration),
		dupProb:   make(map[Address]float64),
		blocked:   make(map[Address]map[Address]struct{}),
	}
}

// Register installs the handler for addr, replacing any previous one and
// clearing a crash flag (a rebooted component re-registers).
func (b *Bus) Register(addr Address, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[addr] = h
	delete(b.down, addr)
}

// Unregister removes addr entirely (component decommissioned).
func (b *Bus) Unregister(addr Address) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.handlers, addr)
	for _, members := range b.groups {
		delete(members, addr)
	}
}

// SetDown marks addr crashed (true) or recovered (false). A crashed endpoint
// keeps its registration but receives nothing and its pending responses are
// lost — exactly a fail-stop crash.
func (b *Bus) SetDown(addr Address, down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if down {
		b.down[addr] = struct{}{}
	} else {
		delete(b.down, addr)
	}
}

// IsDown reports the crash flag for addr.
func (b *Bus) IsDown(addr Address) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, d := b.down[addr]
	return d
}

// SetDropProbability injects uniform message loss in [0,1).
func (b *Bus) SetDropProbability(p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 0.999999
	}
	b.dropProb = p
}

// SetPartition assigns addr to a partition group. Addresses in different
// non-zero groups cannot exchange messages; group 0 (default) talks to
// everyone in group 0. Use ClearPartitions to heal.
func (b *Bus) SetPartition(addr Address, group int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if group == 0 {
		delete(b.partition, addr)
	} else {
		b.partition[addr] = group
	}
}

// ClearPartitions heals all partitions.
func (b *Bus) ClearPartitions() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partition = make(map[Address]int)
}

// SetLinkDelay injects d of extra one-way delay on every message SENT by
// addr (0 removes it) — a slow-but-alive endpoint: its heartbeats and reports
// still arrive, but late enough to flirt with liveness timeouts. Responses it
// produces to inbound calls are delayed too (the reply travels its slow link).
func (b *Bus) SetLinkDelay(addr Address, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d <= 0 {
		delete(b.linkDelay, addr)
	} else {
		b.linkDelay[addr] = d
	}
}

// SetDuplication makes every message sent by addr be delivered twice with
// probability p in [0,1) (0 removes it) — the duplicated-heartbeat gray
// failure. Duplicated requests reach the handler twice; duplicated responses
// are de-duplicated by the caller's once-only completion.
func (b *Bus) SetDuplication(addr Address, p float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p <= 0 {
		delete(b.dupProb, addr)
	} else {
		if p >= 1 {
			p = 0.999999
		}
		b.dupProb[addr] = p
	}
}

// BlockDirected drops every message flowing from→to while leaving the
// reverse direction intact — a one-way partition between hierarchy levels
// (e.g. a GM whose pushes to the GL vanish while GL heartbeats still arrive).
// Unlike SetPartition it is asymmetric and per-link.
func (b *Bus) BlockDirected(from, to Address) {
	b.mu.Lock()
	defer b.mu.Unlock()
	set, ok := b.blocked[from]
	if !ok {
		set = make(map[Address]struct{})
		b.blocked[from] = set
	}
	set[to] = struct{}{}
}

// UnblockDirected removes one directed block.
func (b *Bus) UnblockDirected(from, to Address) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if set, ok := b.blocked[from]; ok {
		delete(set, to)
		if len(set) == 0 {
			delete(b.blocked, from)
		}
	}
}

// ClearGrayFailures removes every injected link delay, duplication and
// directed block (the gray-failure counterpart of ClearPartitions).
func (b *Bus) ClearGrayFailures() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.linkDelay = make(map[Address]time.Duration)
	b.dupProb = make(map[Address]float64)
	b.blocked = make(map[Address]map[Address]struct{})
}

// Stats returns (delivered, dropped) message counts; dropped includes
// unreachable destinations and injected loss.
func (b *Bus) Stats() (delivered, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivered, b.dropped
}

// JoinGroup subscribes addr to a multicast group.
func (b *Bus) JoinGroup(group string, addr Address) {
	b.mu.Lock()
	defer b.mu.Unlock()
	members, ok := b.groups[group]
	if !ok {
		members = make(map[Address]struct{})
		b.groups[group] = members
	}
	members[addr] = struct{}{}
}

// LeaveGroup unsubscribes addr from a multicast group.
func (b *Bus) LeaveGroup(group string, addr Address) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if members, ok := b.groups[group]; ok {
		delete(members, addr)
	}
}

// GroupMembers returns a snapshot of the group's membership, sorted so that
// multicast fan-out order (and hence jitter assignment) is deterministic.
func (b *Bus) GroupMembers(group string) []Address {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Address, 0, len(b.groups[group]))
	for a := range b.groups[group] {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// canTalkLocked applies crash, partition and directed-block rules.
func (b *Bus) canTalkLocked(from, to Address) bool {
	if _, d := b.down[to]; d {
		return false
	}
	if _, d := b.down[from]; d {
		return false
	}
	if set, ok := b.blocked[from]; ok {
		if _, blocked := set[to]; blocked {
			return false
		}
	}
	pf, pt := b.partition[from], b.partition[to]
	return pf == pt
}

// delayLocked computes this message's delivery delay, including any injected
// slow-link delay on the sender.
func (b *Bus) delayLocked(from Address) time.Duration {
	d := b.cfg.Latency + b.linkDelay[from]
	if b.cfg.Jitter > 0 {
		d += time.Duration(b.rng.Int63n(int64(b.cfg.Jitter)))
	}
	return d
}

// duplicateRollLocked reports whether a message from the given sender should
// be delivered twice.
func (b *Bus) duplicateRollLocked(from Address) bool {
	p := b.dupProb[from]
	return p > 0 && b.rng.Float64() < p
}

// Send delivers a one-way message (no response expected). Returns
// ErrUnreachable when the destination is known-unreachable at send time;
// delivery is re-checked at arrival time (the destination may crash in
// flight).
func (b *Bus) Send(from, to Address, kind string, payload any) error {
	return b.dispatch(from, to, kind, payload, nil)
}

// Call delivers a request and invokes cb exactly once with the response or
// an error. The timeout covers the full round trip. cb runs on the runtime
// executor.
func (b *Bus) Call(from, to Address, kind string, payload any, timeout time.Duration, cb func(reply any, err error)) {
	if cb == nil {
		_ = b.Send(from, to, kind, payload)
		return
	}
	// One captured struct, not three captured variables: Call is on every
	// hot path and each captured variable is its own heap allocation.
	var st struct {
		mu    sync.Mutex
		done  bool
		timer simkernel.Canceler
	}
	finish := func(reply any, err error) {
		st.mu.Lock()
		if st.done {
			st.mu.Unlock()
			return
		}
		st.done = true
		timer := st.timer
		st.mu.Unlock()
		// A pending timeout would pin cb and everything it captures for the
		// full timeout after the call already completed.
		if timer != nil {
			timer.Cancel()
		}
		cb(reply, err)
	}
	if timeout > 0 {
		st.mu.Lock()
		st.timer = b.rt.After(timeout, func() { finish(nil, ErrTimeout) })
		st.mu.Unlock()
	}
	err := b.dispatch(from, to, kind, payload, func(reply any, err error) {
		// Response travels back over the network: apply latency and
		// reachability in the reverse direction.
		b.mu.Lock()
		if !b.canTalkLocked(to, from) || b.dropRollLocked() {
			b.dropped++
			b.mu.Unlock()
			return // caller's timeout will fire
		}
		d := b.delayLocked(to)
		b.delivered++
		b.mu.Unlock()
		b.rt.After(d, func() { finish(reply, err) })
	})
	if err != nil {
		b.rt.After(0, func() { finish(nil, err) })
	}
}

func (b *Bus) dropRollLocked() bool {
	if b.dropProb <= 0 {
		return false
	}
	if b.rng.Float64() < b.dropProb {
		b.unreliable++
		return true
	}
	return false
}

func (b *Bus) dispatch(from, to Address, kind string, payload any, respond func(any, error)) error {
	b.mu.Lock()
	if _, ok := b.handlers[to]; !ok {
		b.dropped++
		b.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if !b.canTalkLocked(from, to) {
		b.dropped++
		b.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if b.dropRollLocked() {
		b.dropped++
		b.mu.Unlock()
		return nil // lost in flight: sender cannot tell
	}
	d0 := b.delayLocked(from)
	dup := b.duplicateRollLocked(from)
	var d1 time.Duration
	if dup {
		d1 = b.delayLocked(from)
	}
	b.mu.Unlock()

	deliver := func(d time.Duration) {
		b.rt.After(d, func() {
			b.mu.Lock()
			h, ok := b.handlers[to]
			reachable := ok && b.canTalkLocked(from, to)
			if reachable {
				b.delivered++
			} else {
				b.dropped++
			}
			b.mu.Unlock()
			if !reachable {
				return
			}
			h(&Request{
				Message: Message{From: from, To: to, Kind: kind, Payload: payload},
				respond: respond,
			})
		})
	}
	deliver(d0)
	if dup {
		deliver(d1)
	}
	return nil
}

// Multicast delivers a one-way message to every current member of the group
// except the sender. Unreachable members are silently skipped (UDP multicast
// semantics).
func (b *Bus) Multicast(from Address, group, kind string, payload any) {
	for _, member := range b.GroupMembers(group) {
		if member == from {
			continue
		}
		_ = b.Send(from, member, kind, payload)
	}
}
