// Package livebackend adapts a Snooze hierarchy to the api/v1 Backend
// interface; it is the one /v1 backend. It speaks the same control-plane
// protocol the hierarchy components use among themselves — GL discovery
// through the entry points, submission and topology export against the GL,
// inventory fan-out to the GMs — over the process-local bus, so a snoozed
// control process can serve /v1 next to its /deliver/stream RPC tunnel.
// Remote components reached through a rest.Gateway are transparently
// included: their bus addresses proxy over HTTP.
//
// Entry points are the discovery service (Section II-A): the backend asks
// them for the GL only when it knows none. The GL's address lives in one cell
// that the backend and all its WithCallTimeout copies share. A call to the GL
// that fails forgets that address, and only that one, so a late failure from
// an old GL cannot evict a newer answer. When the GL in the cell fails, the
// backend asks the entry points again and resends the call once:
//   - a submission only if it was not delivered: a manager that is no longer
//     the GL refuses GL work with protocol.ErrNotLeader, having dispatched
//     nothing, and the bus refuses a call to a crashed or unregistered
//     address before delivering it. A submission that timed out may have
//     reached the GL, and resending it could place its VMs twice, so that
//     error is returned. (A broken stream also reads as unreachable, but the
//     GL shares the backend's process, cluster.NewControl, so its calls never
//     cross one.)
//   - a read after any of the three failures.
//
// Each read asks the GMs (protocol.InventoryRequest) only for what it
// returns: ListVMs and Consolidate for the full inventories, ListNodes and
// GetNode for the node records alone, GetVM for that one VM and the nodes
// hosting it. Wherever two GMs answer for the same LC — one record is stale
// after a rejoin, until that GM's sweep expires it — the claim with the
// younger monitor report speaks for the node. A by-ID answer is weaker than
// a listing in one respect: a GM whose fresher record of the node no longer
// lists the VM answers with nothing, so it cannot veto the stale GM's answer.
// GetVM therefore serves a VM from a stale claim when no GM with a fresher
// report, of that node or of another one, still lists it; ListVMs would
// already have dropped it.
//
// Every bus call waits in one place. On a wall-clock runtime
// (simkernel.NewWallRuntime) the requesting goroutine blocks until the bus
// responds. A simulated cluster (internal/cluster) sets Config.Wait instead:
// the requesting goroutine then drives the virtual clock itself until the
// reply arrives, so /v1 over the simulator is this same backend.
package livebackend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	apiv1 "snooze/api/v1"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// Config parameterizes a live backend.
type Config struct {
	// Bus is the process-local message fabric (with gateway-registered
	// peers for remote components).
	Bus *transport.Bus
	// Addr is the bus address the backend answers from (default "api:0").
	Addr transport.Address
	// EPs are the entry points probed for GL discovery (default ["ep:0"]).
	EPs []transport.Address
	// CallTimeout bounds each control-plane call (default 30s).
	CallTimeout time.Duration
	// Metrics is the process registry served by GET /v1/metrics (may be
	// nil: the snapshot is then empty).
	Metrics *metrics.Registry
	// Telemetry is the process-wide telemetry hub — pass the hub the manager
	// processes feed (cluster.NewControl wires this) so /v1/series and
	// /v1/watch see the hierarchy's monitoring flow. Nil creates an empty
	// private hub: the routes work but stay silent.
	Telemetry *telemetry.Hub
	// Now reports the runtime-relative clock telemetry samples are stamped
	// with — pass the hierarchy runtime's Now (cluster.NewControl wires this)
	// so demand=p95 consolidation dry runs window the hub correctly. Nil
	// falls back to this backend's own uptime.
	Now func() time.Duration
	// Tracer is the process-wide decision tracer served by GET /v1/traces —
	// pass the tracer the manager processes record into (cluster.NewControl
	// wires this). Nil keeps the route working with an empty list.
	Tracer *obs.Tracer
	// Wait, when non-nil, runs every bus call on a runtime that no other
	// goroutine drives: it issues the call with send and returns once
	// replied reports true, or with ctx's error if ctx ends before it could
	// send. Nil, as on a wall-clock runtime, sends and blocks until the
	// reply or ctx's end.
	Wait func(ctx context.Context, send func(), replied func() bool) error
}

// Backend serves the api/v1 control plane from a live hierarchy.
type Backend struct {
	cfg Config
	gl  *leaderCell // shared with every WithCallTimeout copy
}

// leaderCell holds the GL address the entry points last named, "" when the
// backend knows no GL.
type leaderCell struct {
	mu   sync.Mutex
	addr transport.Address
}

func (c *leaderCell) get() transport.Address {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

func (c *leaderCell) set(addr transport.Address) {
	c.mu.Lock()
	c.addr = addr
	c.mu.Unlock()
}

// forget clears the cell if it still holds addr.
func (c *leaderCell) forget(addr transport.Address) {
	c.mu.Lock()
	if c.addr == addr {
		c.addr = ""
	}
	c.mu.Unlock()
}

var _ apiv1.Backend = (*Backend)(nil)

// New creates the backend and registers its address on the bus.
func New(cfg Config) *Backend {
	if cfg.Addr == "" {
		cfg.Addr = "api:0"
	}
	if len(cfg.EPs) == 0 {
		cfg.EPs = []transport.Address{"ep:0"}
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 30 * time.Second
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewHub(telemetry.Options{Metrics: cfg.Metrics})
	}
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	b := &Backend{cfg: cfg, gl: &leaderCell{}}
	cfg.Bus.Register(cfg.Addr, func(req *transport.Request) {
		req.RespondErr(errors.New("livebackend: unexpected inbound message"))
	})
	return b
}

// WithCallTimeout returns a backend on b's bus address and sources whose
// calls are bounded by d instead. It shares b's GL cell.
func (b *Backend) WithCallTimeout(d time.Duration) *Backend {
	cfg := b.cfg
	cfg.CallTimeout = d
	return &Backend{cfg: cfg, gl: b.gl}
}

// call performs one request/response over the bus, honouring ctx.
func (b *Backend) call(ctx context.Context, to transport.Address, kind string, payload any) (any, error) {
	type outcome struct {
		reply any
		err   error
	}
	ch := make(chan outcome, 1)
	done := func(reply any, err error) { ch <- outcome{reply, err} }
	if b.cfg.Wait != nil {
		send := func() { b.cfg.Bus.Call(b.cfg.Addr, to, kind, payload, b.cfg.CallTimeout, done) }
		if err := b.cfg.Wait(ctx, send, func() bool { return len(ch) > 0 }); err != nil {
			return nil, err
		}
	} else {
		b.cfg.Bus.Call(b.cfg.Addr, to, kind, payload, b.cfg.CallTimeout, done)
	}
	select {
	case out := <-ch:
		return out.reply, mapBusErr(out.err)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// mapBusErr converts failures into API sentinels: an unreachable or silent
// component, or a manager that is not the GL, is a control-plane
// availability problem, not an internal server fault. The cause stays in the
// chain.
func mapBusErr(err error) error {
	if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrTimeout) || errors.Is(err, protocol.ErrNotLeader) {
		return fmt.Errorf("%w: %w", apiv1.ErrUnavailable, err)
	}
	return err
}

// discoverGL probes the entry points in order until one knows a live GL.
func (b *Backend) discoverGL(ctx context.Context) (transport.Address, error) {
	var lastErr error
	for _, ep := range b.cfg.EPs {
		reply, err := b.call(ctx, ep, protocol.KindGLQuery, struct{}{})
		if err != nil {
			lastErr = err
			continue
		}
		if r, ok := reply.(protocol.GLQueryResponse); ok && r.Known {
			return transport.Address(r.Addr), nil
		}
	}
	if lastErr != nil {
		return "", lastErr
	}
	return "", fmt.Errorf("%w: no group leader known to any entry point", apiv1.ErrUnavailable)
}

// callGL sends one call to the GL: the one in the cell, or the one the entry
// points name when the cell is empty. A failure forgets that GL. When the GL
// came from the cell and the call was not delivered (the GL refused it as not
// the leader, or it was unreachable), or timed out and idempotent is set, the
// call is sent once more to the GL the entry points name then.
func (b *Backend) callGL(ctx context.Context, kind string, payload any, idempotent bool) (any, error) {
	gl := b.gl.get()
	cached := gl != ""
	for {
		if gl == "" {
			var err error
			if gl, err = b.discoverGL(ctx); err != nil {
				return nil, err
			}
			b.gl.set(gl)
		}
		reply, err := b.call(ctx, gl, kind, payload)
		if err == nil {
			return reply, nil
		}
		b.gl.forget(gl)
		again := errors.Is(err, protocol.ErrNotLeader) || errors.Is(err, transport.ErrUnreachable) ||
			idempotent && errors.Is(err, transport.ErrTimeout)
		if !cached || !again {
			return nil, err
		}
		gl, cached = "", false
	}
}

// SubmitVMs implements Backend via the EP→GL submission path.
func (b *Backend) SubmitVMs(ctx context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	if err := apiv1.ValidateSubmit(specs); err != nil {
		return apiv1.SubmitResult{}, err
	}
	resp, err := b.Submit(ctx, apiv1.ToVMSpecs(specs))
	if err != nil {
		return apiv1.SubmitResult{}, err
	}
	return apiv1.FromSubmitResponse(resp), nil
}

// Submit submits vms to the GL as they are: SubmitVMs without validation or
// conversion. It is resent only if it was not delivered (see the package
// doc). Simulated clusters submit through it.
func (b *Backend) Submit(ctx context.Context, vms []types.VMSpec) (protocol.SubmitResponse, error) {
	reply, err := b.callGL(ctx, protocol.KindSubmit, protocol.SubmitRequest{VMs: vms}, false)
	if err != nil {
		return protocol.SubmitResponse{}, err
	}
	resp, ok := reply.(protocol.SubmitResponse)
	if !ok {
		return protocol.SubmitResponse{}, fmt.Errorf("livebackend: bad submit response %T", reply)
	}
	return resp, nil
}

// Topology implements Backend against the GL.
func (b *Backend) Topology(ctx context.Context, deep bool) (apiv1.Topology, error) {
	resp, err := b.Hierarchy(ctx, deep)
	if err != nil {
		return apiv1.Topology{}, err
	}
	return apiv1.FromTopologyResponse(resp), nil
}

// Hierarchy asks the GL for its topology export, with per-LC detail when
// deep: Topology before conversion.
func (b *Backend) Hierarchy(ctx context.Context, deep bool) (protocol.TopologyResponse, error) {
	reply, err := b.callGL(ctx, protocol.KindTopology, protocol.TopologyRequest{Deep: deep}, true)
	if err != nil {
		return protocol.TopologyResponse{}, err
	}
	resp, ok := reply.(protocol.TopologyResponse)
	if !ok {
		return protocol.TopologyResponse{}, fmt.Errorf("livebackend: bad topology response %T", reply)
	}
	return resp, nil
}

// gather asks every GM of the topology for the part of its inventory want
// describes and returns the replies in topology order. GMs that fail
// mid-listing are skipped: a partial listing mirrors what the GL itself knows
// during a membership change.
func (b *Backend) gather(ctx context.Context, want protocol.InventoryRequest) ([]protocol.InventoryResponse, error) {
	topo, err := b.Hierarchy(ctx, false)
	if err != nil {
		return nil, err
	}
	replies := make([]protocol.InventoryResponse, 0, len(topo.GMs))
	for _, gm := range topo.GMs {
		reply, err := b.call(ctx, transport.Address(gm.Addr), protocol.KindInventory, want)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if inv, ok := reply.(protocol.InventoryResponse); ok {
			replies = append(replies, inv)
		}
	}
	return replies, nil
}

// claim locates one GM's record of a node: replies[reply].Nodes[node].
type claim struct {
	reply, node int
	age         int64
}

// freshest resolves who speaks for each node. When two GMs claim the same LC
// (one record is stale after a rejoin), the claim with the freshest monitor
// report wins — its node status and VM set are the ones served.
func freshest(replies []protocol.InventoryResponse) map[types.NodeID]claim {
	n := 0
	for i := range replies {
		n += len(replies[i].Nodes)
	}
	owner := make(map[types.NodeID]claim, n)
	for ri := range replies {
		for ni := range replies[ri].Nodes {
			node := &replies[ri].Nodes[ni]
			if cur, seen := owner[node.Status.Spec.ID]; !seen || node.AgeNs < cur.age {
				owner[node.Status.Spec.ID] = claim{reply: ri, node: ni, age: node.AgeNs}
			}
		}
	}
	return owner
}

// nodes lists the winning node records, by ID.
func nodes(replies []protocol.InventoryResponse, owner map[types.NodeID]claim) []apiv1.Node {
	out := make([]apiv1.Node, 0, len(owner))
	for _, c := range owner {
		out = append(out, apiv1.FromNodeStatus(replies[c.reply].Nodes[c.node].Status))
	}
	apiv1.SortNodes(out)
	return out
}

// vms lists the VMs of the winning node records, by ID. Each GM orders its
// reply by ID, so the owner-filtered replies are merged, not concatenated and
// re-sorted: the GM count is small, and each output VM costs a scan of the
// replies' heads. Equal IDs keep reply order. A reply out of order (a GM that
// does not sort) costs one sort of the merged list.
func vms(replies []protocol.InventoryResponse, owner map[types.NodeID]claim) []apiv1.VM {
	n := 0
	for i := range replies {
		n += len(replies[i].VMs)
	}
	out := make([]apiv1.VM, 0, n)
	next := make([]int, len(replies)) // per reply, the index of its next owned VM
	skip := func(ri int) {
		vs := replies[ri].VMs
		for next[ri] < len(vs) {
			if c, ok := owner[vs[next[ri]].Node]; ok && c.reply == ri {
				return
			}
			next[ri]++
		}
	}
	for ri := range replies {
		skip(ri)
	}
	sorted := true
	for {
		best := -1
		for ri := range replies {
			if next[ri] < len(replies[ri].VMs) &&
				(best < 0 || replies[ri].VMs[next[ri]].Spec.ID < replies[best].VMs[next[best]].Spec.ID) {
				best = ri
			}
		}
		if best < 0 {
			break
		}
		vm := apiv1.FromVMStatus(replies[best].VMs[next[best]], "")
		if len(out) > 0 && vm.ID < out[len(out)-1].ID {
			sorted = false
		}
		out = append(out, vm)
		next[best]++
		skip(best)
	}
	if !sorted {
		apiv1.SortVMs(out)
	}
	return out
}

// ListVMs implements Backend from every GM's full inventory.
func (b *Backend) ListVMs(ctx context.Context) ([]apiv1.VM, error) {
	replies, err := b.gather(ctx, protocol.InventoryRequest{})
	if err != nil {
		return nil, err
	}
	return vms(replies, freshest(replies)), nil
}

// GetVM implements Backend by asking every GM for that VM alone. Among the
// answers the one whose node reported most recently is served.
func (b *Backend) GetVM(ctx context.Context, id string) (apiv1.VM, error) {
	replies, err := b.gather(ctx, protocol.InventoryRequest{VM: types.VMID(id)})
	if err != nil {
		return apiv1.VM{}, err
	}
	owner := freshest(replies)
	var best *types.VMStatus
	var bestAge int64
	for ri := range replies {
		for vi := range replies[ri].VMs {
			vm := &replies[ri].VMs[vi]
			if string(vm.Spec.ID) != id { // a GM that predates by-ID requests answers in full
				continue
			}
			if c, ok := owner[vm.Node]; ok && c.reply == ri && (best == nil || c.age < bestAge) {
				best, bestAge = vm, c.age
			}
		}
	}
	if best == nil {
		return apiv1.VM{}, fmt.Errorf("%w: vm %q", apiv1.ErrNotFound, id)
	}
	return apiv1.FromVMStatus(*best, ""), nil
}

// ListNodes implements Backend from every GM's node records.
func (b *Backend) ListNodes(ctx context.Context) ([]apiv1.Node, error) {
	replies, err := b.gather(ctx, protocol.InventoryRequest{NodesOnly: true})
	if err != nil {
		return nil, err
	}
	return nodes(replies, freshest(replies)), nil
}

// GetNode implements Backend from every GM's node records.
func (b *Backend) GetNode(ctx context.Context, id string) (apiv1.Node, error) {
	replies, err := b.gather(ctx, protocol.InventoryRequest{NodesOnly: true})
	if err != nil {
		return apiv1.Node{}, err
	}
	c, ok := freshest(replies)[types.NodeID(id)]
	if !ok {
		return apiv1.Node{}, fmt.Errorf("%w: node %q", apiv1.ErrNotFound, id)
	}
	return apiv1.FromNodeStatus(replies[c.reply].Nodes[c.node].Status), nil
}

// Consolidate implements Backend over the GM-reported state. demand=p95
// prices from the process telemetry hub at the runtime's current instant.
func (b *Backend) Consolidate(ctx context.Context, req apiv1.ConsolidationRequest) (apiv1.ConsolidationPlan, error) {
	replies, err := b.gather(ctx, protocol.InventoryRequest{})
	if err != nil {
		return apiv1.ConsolidationPlan{}, err
	}
	owner := freshest(replies)
	demand := apiv1.P95Demand(b.cfg.Telemetry, b.cfg.Now())
	return apiv1.PlanConsolidation(vms(replies, owner), nodes(replies, owner), req, demand)
}

// consolidationCtl fans one online-optimizer control action out to every GM
// in the topology. GMs that fail mid-call are skipped, mirroring inventory:
// a partial listing is what the hierarchy itself would report during a
// membership change.
func (b *Backend) consolidationCtl(ctx context.Context, action string) (apiv1.ConsolidationStatusList, error) {
	topo, err := b.Hierarchy(ctx, false)
	if err != nil {
		return apiv1.ConsolidationStatusList{}, err
	}
	var list apiv1.ConsolidationStatusList
	seen := make(map[string]bool)
	for _, gm := range topo.GMs {
		reply, err := b.call(ctx, transport.Address(gm.Addr), protocol.KindConsolidation,
			protocol.ConsolidationCtlRequest{Action: action})
		if err != nil {
			if ctx.Err() != nil {
				return apiv1.ConsolidationStatusList{}, ctx.Err()
			}
			continue
		}
		resp, ok := reply.(protocol.ConsolidationCtlResponse)
		if !ok || seen[string(resp.GM)] {
			continue
		}
		seen[string(resp.GM)] = true
		list.Items = append(list.Items, apiv1.FromConsolidationCtl(resp))
	}
	slices.SortFunc(list.Items, func(a, b apiv1.ConsolidationStatus) int { return strings.Compare(a.GM, b.GM) })
	return list, nil
}

// ConsolidationStatus implements Backend.
func (b *Backend) ConsolidationStatus(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	return b.consolidationCtl(ctx, protocol.ConsolidationStatus)
}

// StartConsolidation implements Backend.
func (b *Backend) StartConsolidation(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	return b.consolidationCtl(ctx, protocol.ConsolidationStart)
}

// StopConsolidation implements Backend.
func (b *Backend) StopConsolidation(ctx context.Context) (apiv1.ConsolidationStatusList, error) {
	return b.consolidationCtl(ctx, protocol.ConsolidationStop)
}

// Metrics implements Backend from the process registry.
func (b *Backend) Metrics(ctx context.Context) (apiv1.MetricsSnapshot, error) {
	b.cfg.Telemetry.PublishGauges()
	return apiv1.FromRegistry(b.cfg.Metrics), nil
}

// ListSeries implements Backend over the process telemetry hub.
func (b *Backend) ListSeries(ctx context.Context) ([]apiv1.SeriesKey, error) {
	return apiv1.ListHubSeries(b.cfg.Telemetry), nil
}

// QuerySeries implements Backend.
func (b *Backend) QuerySeries(ctx context.Context, q apiv1.SeriesQuery) (apiv1.SeriesData, error) {
	return apiv1.QueryHubSeries(b.cfg.Telemetry, q)
}

// ListTraces implements Backend over the process decision tracer.
func (b *Backend) ListTraces(ctx context.Context, q apiv1.TraceQuery) (apiv1.TraceList, error) {
	return apiv1.QueryTraces(b.cfg.Tracer, q), nil
}

// Watch implements Backend over the process telemetry hub.
func (b *Backend) Watch(ctx context.Context, from uint64) (apiv1.EventStream, error) {
	return apiv1.WatchHub(ctx, b.cfg.Telemetry, from), nil
}
