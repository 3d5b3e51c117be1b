package hierarchy

import (
	"errors"
	"sync"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/simkernel"
	"snooze/internal/transport"
)

// EP is an Entry Point: the replicated client-facing component "queried by
// the clients to discover the current GL" (Section II-A). EPs learn the GL
// passively from GL heartbeats on the multicast group. The client that asks
// them is the /v1 backend (api/v1/livebackend); the paper's CLI is snoozectl
// over /v1.
type EP struct {
	rt       simkernel.Runtime
	bus      *transport.Bus
	addr     transport.Address
	staleAge time.Duration

	mu       sync.Mutex
	glAddr   transport.Address
	epoch    uint64 // of the newest GL heard (see handle)
	lastBeat time.Duration
}

// NewEP creates an entry point. staleAge bounds how old the last GL
// heartbeat may be before the EP reports the GL as unknown.
func NewEP(rt simkernel.Runtime, bus *transport.Bus, addr transport.Address, staleAge time.Duration) *EP {
	if staleAge <= 0 {
		staleAge = 15 * time.Second
	}
	return &EP{rt: rt, bus: bus, addr: addr, staleAge: staleAge}
}

// Addr returns the EP's bus address.
func (ep *EP) Addr() transport.Address { return ep.addr }

// Start registers the EP and subscribes to GL heartbeats.
func (ep *EP) Start() {
	ep.bus.Register(ep.addr, ep.handle)
	ep.bus.JoinGroup(protocol.GroupGL, ep.addr)
}

// Stop removes the EP from the bus.
func (ep *EP) Stop() {
	ep.bus.LeaveGroup(protocol.GroupGL, ep.addr)
	ep.bus.Unregister(ep.addr)
}

// GL returns the EP's current view of the GL ("" if unknown/stale).
func (ep *EP) GL() transport.Address {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.glAddr == "" || ep.rt.Now()-ep.lastBeat > ep.staleAge {
		return ""
	}
	return ep.glAddr
}

func (ep *EP) handle(req *transport.Request) {
	switch req.Kind {
	case protocol.KindGLHeartbeat:
		hb, ok := req.Payload.(protocol.GLHeartbeat)
		if !ok {
			return
		}
		ep.mu.Lock()
		// A GL heartbeats the epoch of its election znode, which grows
		// across successive leaders: a deposed GL's heartbeats still in
		// flight carry an older one and are ignored.
		if hb.Epoch >= ep.epoch {
			ep.glAddr = transport.Address(hb.Addr)
			ep.epoch = hb.Epoch
			ep.lastBeat = ep.rt.Now()
		}
		ep.mu.Unlock()
	case protocol.KindGLQuery:
		gl := ep.GL()
		req.Respond(protocol.GLQueryResponse{Addr: string(gl), Known: gl != ""})
	default:
		req.RespondErr(errors.New("ep: unknown message kind " + req.Kind))
	}
}
