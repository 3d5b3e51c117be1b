package apiv1

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Backend is the control-plane surface of a deployment. Two implementations
// exist: the hierarchy's own (api/v1/livebackend), which a snoozed control
// process and a simulated cluster (internal/cluster) both serve, and the HTTP
// client (api/v1/client), which makes any remote /v1 server usable wherever a
// Backend is expected. Fault injection is the optional FaultInjector; the
// experiments route needs no backend at all (api/v1/server runs it).
type Backend interface {
	// SubmitVMs submits a VM batch to the hierarchy and reports per-VM
	// placement outcomes. Specs with empty or duplicate IDs are rejected
	// with ErrInvalid.
	SubmitVMs(ctx context.Context, specs []VMSpec) (SubmitResult, error)
	// ListVMs returns every VM known to the hierarchy, sorted by ID.
	ListVMs(ctx context.Context) ([]VM, error)
	// GetVM returns one VM or ErrNotFound.
	GetVM(ctx context.Context, id string) (VM, error)
	// ListNodes returns every node, sorted by ID.
	ListNodes(ctx context.Context) ([]Node, error)
	// GetNode returns one node or ErrNotFound.
	GetNode(ctx context.Context, id string) (Node, error)
	// Topology exports the GL/GM/LC hierarchy; deep includes per-LC detail.
	Topology(ctx context.Context, deep bool) (Topology, error)
	// Consolidate computes a dry-run consolidation plan over the currently
	// running VMs (Section III).
	Consolidate(ctx context.Context, req ConsolidationRequest) (ConsolidationPlan, error)
	// ConsolidationStatus reports the online consolidation optimizer's state
	// on every reachable GM, sorted by GM ID.
	ConsolidationStatus(ctx context.Context) (ConsolidationStatusList, error)
	// StartConsolidation starts the online optimizer on every reachable GM
	// (idempotent) and returns the resulting states.
	StartConsolidation(ctx context.Context) (ConsolidationStatusList, error)
	// StopConsolidation stops the online optimizer on every reachable GM,
	// abandoning any in-flight plan, and returns the resulting states.
	StopConsolidation(ctx context.Context) (ConsolidationStatusList, error)
	// Metrics snapshots control-plane counters, gauges and series.
	Metrics(ctx context.Context) (MetricsSnapshot, error)
	// ListTraces returns finished decision spans matching the query,
	// ordered by trace ID then start time. Backends without a tracer
	// return an empty list, not an error.
	ListTraces(ctx context.Context, q TraceQuery) (TraceList, error)
	// ListSeries lists the telemetry series keys, sorted by entity then
	// metric.
	ListSeries(ctx context.Context) ([]SeriesKey, error)
	// QuerySeries runs one windowed (optionally downsampled, paginated)
	// telemetry query. Missing entity/metric or a bad aggregation return
	// ErrInvalid; an unknown series returns an empty window, not an error
	// (series appear with monitoring flow and are dropped when their entity
	// leaves the deployment).
	QuerySeries(ctx context.Context, q SeriesQuery) (SeriesData, error)
	// Watch streams telemetry events, first replaying retained events with
	// Seq >= from, then following live. The stream ends when ctx is
	// cancelled, Close is called, or the consumer falls too far behind.
	Watch(ctx context.Context, from uint64) (EventStream, error)
}

// FaultInjector is the optional fault-injection capability of a Backend. A
// simulated cluster has it; a live deployment does not, and the server
// answers POST /v1/nodes/{id}/fail for it with ErrUnsupported (501).
type FaultInjector interface {
	// FailNode crash-stops a node; an unknown ID returns ErrNotFound.
	FailNode(ctx context.Context, id string) error
}

// EventStream is a live telemetry event feed returned by Backend.Watch.
type EventStream interface {
	// Events delivers events in sequence order; the channel closes when the
	// stream ends.
	Events() <-chan Event
	// Err reports why the channel closed: nil after Close or context end, a
	// descriptive error when the stream was cut (e.g. a lagging consumer or
	// a broken connection).
	Err() error
	// Close releases the stream's resources. Idempotent.
	Close()
}

// Sentinel errors shared by all backends. The HTTP layer maps them onto
// status codes and the client maps status codes back, so they survive the
// wire round trip.
var (
	// ErrNotFound means the referenced resource does not exist.
	ErrNotFound = errors.New("apiv1: not found")
	// ErrInvalid means the request is malformed.
	ErrInvalid = errors.New("apiv1: invalid argument")
	// ErrUnsupported means this backend cannot perform the operation.
	ErrUnsupported = errors.New("apiv1: unsupported operation")
	// ErrUnavailable means the hierarchy cannot serve now (e.g. no group
	// leader during an election); retrying later may succeed.
	ErrUnavailable = errors.New("apiv1: control plane unavailable")
)

// ValidateSubmit checks a submission batch before it reaches the hierarchy.
func ValidateSubmit(specs []VMSpec) error {
	if len(specs) == 0 {
		return fmt.Errorf("%w: empty VM batch", ErrInvalid)
	}
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		if s.ID == "" {
			return fmt.Errorf("%w: VM with empty ID", ErrInvalid)
		}
		if _, dup := seen[s.ID]; dup {
			return fmt.Errorf("%w: duplicate VM ID %q", ErrInvalid, s.ID)
		}
		seen[s.ID] = struct{}{}
		if s.Requested.CPU < 0 || s.Requested.MemoryMB < 0 ||
			s.Requested.NetRxMbps < 0 || s.Requested.NetTxMbps < 0 {
			return fmt.Errorf("%w: VM %q requests negative resources", ErrInvalid, s.ID)
		}
	}
	return nil
}

// SortVMs orders VMs by ID (the canonical list order of the API).
func SortVMs(vms []VM) {
	slices.SortFunc(vms, func(a, b VM) int { return strings.Compare(a.ID, b.ID) })
}

// SortNodes orders nodes by ID.
func SortNodes(nodes []Node) {
	slices.SortFunc(nodes, func(a, b Node) int { return strings.Compare(a.ID, b.ID) })
}

// Page applies limit/offset pagination to a collection of n items and
// returns the slice bounds plus the next offset (0 when the page reaches the
// end). limit <= 0 means "no limit".
func Page(n, limit, offset int) (lo, hi, next int) {
	if offset < 0 {
		offset = 0
	}
	if offset > n {
		offset = n
	}
	lo, hi = offset, n
	if limit > 0 && lo+limit < n {
		hi = lo + limit
		next = hi
	}
	return lo, hi, next
}
