// Package livebackend adapts a live, wall-clock Snooze hierarchy to the
// api/v1 Backend interface. It speaks the same control-plane protocol the
// hierarchy components use among themselves — GL discovery through the entry
// points, submission and topology export against the GL, inventory fan-out
// to the GMs — over the process-local bus, so a snoozed control process can
// serve /v1 next to its /deliver RPC tunnel. Remote components reached
// through a rest.Gateway are transparently included: their bus addresses
// proxy over HTTP.
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
// The backend requires a wall-clock runtime (simkernel.NewWallRuntime):
// calls block the requesting goroutine until the bus responds. Simulated
// clusters use api/v1/simbackend instead, which drives the virtual clock.
package livebackend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	// processes feed (cmd/snoozed wires this) so /v1/series and /v1/watch
	// see the hierarchy's monitoring flow. Nil creates an empty private hub:
	// the routes work but stay silent.
	Telemetry *telemetry.Hub
	// Now reports the runtime-relative clock telemetry samples are stamped
	// with — pass the hierarchy runtime's Now (cmd/snoozed wires this) so
	// demand=p95 consolidation dry runs window the hub correctly. Nil falls
	// back to this backend's own uptime.
	Now func() time.Duration
	// Tracer is the process-wide decision tracer served by GET /v1/traces —
	// pass the tracer the manager processes record into (cmd/snoozed wires
	// this). Nil keeps the route working with an empty list.
	Tracer *obs.Tracer
}

// Backend serves the api/v1 control plane from a live hierarchy.
type Backend struct {
	cfg Config
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
	b := &Backend{cfg: cfg}
	cfg.Bus.Register(cfg.Addr, func(req *transport.Request) {
		req.RespondErr(errors.New("livebackend: unexpected inbound message"))
	})
	return b
}

// call performs one request/response over the bus, honouring ctx.
func (b *Backend) call(ctx context.Context, to transport.Address, kind string, payload any) (any, error) {
	type outcome struct {
		reply any
		err   error
	}
	ch := make(chan outcome, 1)
	b.cfg.Bus.Call(b.cfg.Addr, to, kind, payload, b.cfg.CallTimeout, func(reply any, err error) {
		ch <- outcome{reply, err}
	})
	select {
	case out := <-ch:
		return out.reply, mapBusErr(out.err)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// mapBusErr converts transport failures into API sentinels: an unreachable
// or silent component is a control-plane availability problem, not an
// internal server fault.
func mapBusErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrTimeout) {
		return fmt.Errorf("%w: %v", apiv1.ErrUnavailable, err)
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

// SubmitVMs implements Backend via the EP→GL submission path.
func (b *Backend) SubmitVMs(ctx context.Context, specs []apiv1.VMSpec) (apiv1.SubmitResult, error) {
	if err := apiv1.ValidateSubmit(specs); err != nil {
		return apiv1.SubmitResult{}, err
	}
	gl, err := b.discoverGL(ctx)
	if err != nil {
		return apiv1.SubmitResult{}, err
	}
	reply, err := b.call(ctx, gl, protocol.KindSubmit, protocol.SubmitRequest{VMs: apiv1.ToVMSpecs(specs)})
	if err != nil {
		return apiv1.SubmitResult{}, err
	}
	resp, ok := reply.(protocol.SubmitResponse)
	if !ok {
		return apiv1.SubmitResult{}, fmt.Errorf("livebackend: bad submit response %T", reply)
	}
	return apiv1.FromSubmitResponse(resp), nil
}

// Topology implements Backend against the GL.
func (b *Backend) Topology(ctx context.Context, deep bool) (apiv1.Topology, error) {
	resp, err := b.topology(ctx, deep)
	if err != nil {
		return apiv1.Topology{}, err
	}
	return apiv1.FromTopologyResponse(resp), nil
}

func (b *Backend) topology(ctx context.Context, deep bool) (protocol.TopologyResponse, error) {
	gl, err := b.discoverGL(ctx)
	if err != nil {
		return protocol.TopologyResponse{}, err
	}
	reply, err := b.call(ctx, gl, protocol.KindTopology, protocol.TopologyRequest{Deep: deep})
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
	topo, err := b.topology(ctx, false)
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

// vms lists the VMs of the winning node records, by ID: one conversion pass
// over the replies, and one sort unless a single GM answered (its reply is
// ordered already).
func vms(replies []protocol.InventoryResponse, owner map[types.NodeID]claim) []apiv1.VM {
	n := 0
	for i := range replies {
		n += len(replies[i].VMs)
	}
	out := make([]apiv1.VM, 0, n)
	for ri := range replies {
		for vi := range replies[ri].VMs {
			vm := &replies[ri].VMs[vi]
			if c, ok := owner[vm.Node]; ok && c.reply == ri {
				out = append(out, apiv1.FromVMStatus(*vm, ""))
			}
		}
	}
	if len(replies) > 1 {
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
	topo, err := b.topology(ctx, false)
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

// FailNode implements Backend: live deployments have no fault injector.
func (b *Backend) FailNode(ctx context.Context, id string) error {
	return fmt.Errorf("%w: fault injection requires a simulated backend", apiv1.ErrUnsupported)
}

// Experiment implements Backend (experiments run self-contained simulated
// clusters, so a live deployment can still reproduce the paper's tables).
func (b *Backend) Experiment(ctx context.Context, id string) (apiv1.Experiment, error) {
	return apiv1.RunExperiment(ctx, id)
}
