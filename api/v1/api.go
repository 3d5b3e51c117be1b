// Package apiv1 is the versioned, typed control-plane API of the Snooze
// reproduction — the stable surface operators and programs use to manage a
// deployment, whether it is a live wall-clock snoozed process or the
// discrete-event simulation. Both serve it through one backend
// (api/v1/livebackend), which asks the hierarchy itself, so /v1 shows the
// hierarchy's view in either. The paper exposes its control plane as "Java
// RESTful web services" with a CLI on top (Section II-A); this package is
// that idea made versionable: JSON DTOs, the Backend interface, an HTTP
// server mounting the /v1 resource routes (api/v1/server) and a typed Go
// client (api/v1/client).
//
// The wire contract is resource-oriented:
//
//	GET  /v1/vms              list VMs (paginated: ?limit=&offset=)
//	POST /v1/vms              submit a VM batch
//	GET  /v1/vms/{id}         one VM
//	GET  /v1/nodes            list nodes (paginated)
//	GET  /v1/nodes/{id}       one node
//	POST /v1/nodes/{id}/fail  crash-stop a node (backends with a FaultInjector)
//	GET  /v1/topology         hierarchy export (?deep=true for per-LC detail)
//	POST /v1/consolidations   compute a consolidation plan (dry run)
//	GET  /v1/consolidations/status  online consolidation optimizer state, per GM
//	POST /v1/consolidations/start   start the online optimizer on every GM
//	POST /v1/consolidations/stop    stop the online optimizer on every GM
//	GET  /v1/metrics          control-plane counters, gauges and latency series
//	GET  /v1/traces           decision traces: spans with policy evidence
//	                          (?traceId=&entity=&kind=&limit=&offset=)
//	GET  /v1/series           telemetry: list series keys, or windowed queries
//	                          (?entity=&metric=&fromNs=&toNs=&agg=&stepNs=)
//	GET  /v1/watch            telemetry: SSE event stream (?from=seq replay)
//	GET  /v1/healthz          liveness
//
// Deployments additionally expose GET /metrics (no version segment): the
// same counters, gauges and histograms in Prometheus text format, rendered
// by api/v1/server.PrometheusHandler.
//
// Every body is what encoding/json writes for its DTO, byte for byte. The two
// list bodies that grow with the deployment, GET /v1/vms and GET /v1/nodes,
// are also written and read by reflection-free codecs (AppendBody, DecodeBody
// in codec.go) that fall back to encoding/json on any other shape, so servers
// and clients of any version, or written against the JSON shape with another
// library, interoperate.
//
// Errors travel as an ErrorBody envelope with a machine-readable code; the
// client converts codes back into the sentinel errors of this package, so
// `errors.Is(err, apiv1.ErrNotFound)` works across the HTTP boundary.
package apiv1

// Version is the API version segment served and consumed by this package.
const Version = "v1"

// Resources is the 4-dimensional capacity/demand vector of the paper
// (Section II-B): CPU cores, memory in MB, network receive/transmit in
// Mbit/s. It mirrors the internal ResourceVector but is owned by the wire
// contract so internal refactors cannot silently change the API.
type Resources struct {
	CPU       float64 `json:"cpu"`
	MemoryMB  float64 `json:"memoryMb"`
	NetRxMbps float64 `json:"netRxMbps"`
	NetTxMbps float64 `json:"netTxMbps"`
}

// VMSpec is a VM submission request.
type VMSpec struct {
	// ID names the VM; a submission with an empty ID is invalid.
	ID string `json:"id"`
	// Requested is the reservation the scheduler must honour.
	Requested Resources `json:"requested"`
	// TraceID optionally names the synthetic utilization trace driving the
	// VM's demand in simulation (empty = flat at requested).
	TraceID string `json:"traceId,omitempty"`
}

// VM is the monitored view of a virtual machine.
type VM struct {
	ID        string    `json:"id"`
	Requested Resources `json:"requested"`
	// State is the lifecycle state: pending, booting, running, migrating,
	// suspended, terminated or failed.
	State string `json:"state"`
	// Node is the hosting node ("" while pending).
	Node string `json:"node,omitempty"`
	// Used is the most recent measured utilization.
	Used Resources `json:"used"`
	// TraceID echoes the submission's trace name, when any.
	TraceID string `json:"traceId,omitempty"`
}

// Node is the monitored view of a physical node.
type Node struct {
	ID       string    `json:"id"`
	Capacity Resources `json:"capacity"`
	// Power is the node power state: on, suspending, suspended, waking,
	// off, booting or failed.
	Power    string    `json:"power"`
	Used     Resources `json:"used"`
	Reserved Resources `json:"reserved"`
	VMs      []string  `json:"vms,omitempty"`
	Idle     bool      `json:"idle"`
}

// SubmitRequest is the POST /v1/vms body.
type SubmitRequest struct {
	VMs []VMSpec `json:"vms"`
}

// SubmitResult reports per-VM placement outcomes of one submission.
type SubmitResult struct {
	// Placed maps VM ID to the hosting node ID.
	Placed map[string]string `json:"placed"`
	// Unplaced lists VMs the hierarchy could not fit.
	Unplaced []string `json:"unplaced,omitempty"`
}

// GroupSummary is a GM's aggregate as exported in topology responses
// (Section II-B: the GL schedules on summaries, not exact state).
type GroupSummary struct {
	Used      Resources `json:"used"`
	Reserved  Resources `json:"reserved"`
	Total     Resources `json:"total"`
	ActiveLCs int       `json:"activeLcs"`
	AsleepLCs int       `json:"asleepLcs"`
	VMs       int       `json:"vms"`
}

// TopologyLC describes one Local Controller in a deep topology export.
type TopologyLC struct {
	ID       string    `json:"id"`
	Power    string    `json:"power"`
	VMs      int       `json:"vms"`
	Reserved Resources `json:"reserved"`
	Capacity Resources `json:"capacity"`
}

// TopologyGM describes one Group Manager in a topology export. Scheduling
// is the GM's own reported policy configuration — present once the GM's
// summary pushes have carried it, and the authoritative answer for
// deployments whose groups run different policies than the GL's.
type TopologyGM struct {
	ID         string          `json:"id"`
	Addr       string          `json:"addr"`
	Summary    GroupSummary    `json:"summary"`
	Scheduling *SchedulingInfo `json:"scheduling,omitempty"`
	// LCs is present only in deep exports.
	LCs []TopologyLC `json:"lcs,omitempty"`
}

// SchedulingInfo is the deployment's active scheduling configuration: the
// policy names at both scheduling levels, the demand estimator and the
// capacity-view horizon (the telemetry window policies plan against).
type SchedulingInfo struct {
	Dispatch      string `json:"dispatch"`
	Placement     string `json:"placement"`
	Overload      string `json:"overload"`
	Underload     string `json:"underload"`
	Estimator     string `json:"estimator,omitempty"`
	ViewHorizonNs int64  `json:"viewHorizonNs,omitempty"`
}

// Topology is the hierarchy export — the CLI's "live visualizing and
// exporting of the hierarchy organization" (Section II-A).
type Topology struct {
	GL  string       `json:"gl"`
	GMs []TopologyGM `json:"gms"`
	// Scheduling reports the active policies and view horizon.
	Scheduling SchedulingInfo `json:"scheduling"`
}

// Consolidation algorithm names accepted by ConsolidationRequest.
const (
	AlgorithmACO     = "aco"
	AlgorithmFFD     = "ffd"
	AlgorithmOptimal = "optimal"
)

// Demand modes accepted by ConsolidationRequest.
const (
	// DemandRequested prices each VM at its reservation (the default).
	DemandRequested = "requested"
	// DemandP95 prices each VM at the p95 of its windowed telemetry demand
	// (snapshot fallback) — the same chain the online optimizer plans with,
	// so a demand=p95 dry run predicts the online service's packing.
	DemandP95 = "p95"
)

// ConsolidationRequest is the POST /v1/consolidations body: compute a
// migration plan packing the currently running VMs onto fewer hosts
// (Section III). The plan is a dry run built by the same problem builder as
// the GMs' online optimizer (consolidation.BuildProblem: VMs sized at
// max(reservation, demand), hosts offering only what resident VMs outside the
// plan do not hold) — executing consolidation stays with that optimizer.
type ConsolidationRequest struct {
	// Algorithm selects the solver: "aco" (default), "ffd" or "optimal".
	Algorithm string `json:"algorithm,omitempty"`
	// Demand selects VM pricing: "requested" (default) or "p95".
	Demand string `json:"demand,omitempty"`
}

// Migration is one VM move of a consolidation plan.
type Migration struct {
	VM   string `json:"vm"`
	From string `json:"from"`
	To   string `json:"to"`
}

// ConsolidationPlan is a computed (not executed) consolidation outcome.
type ConsolidationPlan struct {
	Algorithm  string `json:"algorithm"`
	VMs        int    `json:"vms"`
	HostsTotal int    `json:"hostsTotal"`
	// HostsBefore/HostsAfter count hosts with at least one VM.
	HostsBefore int `json:"hostsBefore"`
	HostsAfter  int `json:"hostsAfter"`
	// Optimal is set when the solver proved optimality.
	Optimal bool `json:"optimal,omitempty"`
	// Cycles is the solver iteration count (ACO cycles, B&B nodes).
	Cycles     int         `json:"cycles,omitempty"`
	Migrations []Migration `json:"migrations,omitempty"`
}

// ConsolidationRound summarizes one completed round of a GM's online
// consolidation optimizer.
type ConsolidationRound struct {
	Round       uint64 `json:"round"`
	AtNs        int64  `json:"atNs"`
	HostsBefore int    `json:"hostsBefore"`
	HostsAfter  int    `json:"hostsAfter"`
	Planned     int    `json:"planned"`
	Executed    int    `json:"executed"`
	Failed      int    `json:"failed"`
	Cancelled   int    `json:"cancelled"`
}

// ConsolidationStatus is one GM's online consolidation optimizer state: the
// continuous packing service that periodically replans from live capacity
// views and executes budgeted migration plans (Section III, run online).
type ConsolidationStatus struct {
	GM      string `json:"gm"`
	Running bool   `json:"running"`
	// InRound is set while a planned migration sequence is executing.
	InRound bool `json:"inRound"`
	// Rounds/Migrations/Cancels/Failures are lifetime totals.
	Rounds     uint64 `json:"rounds"`
	Migrations uint64 `json:"migrations"`
	Cancels    uint64 `json:"cancels"`
	Failures   uint64 `json:"failures"`
	// Budget is the per-round migration cap (< 0 = unlimited).
	Budget   int   `json:"budget"`
	PeriodNs int64 `json:"periodNs"`
	// LastRound is the most recently completed round, when any.
	LastRound *ConsolidationRound `json:"lastRound,omitempty"`
}

// ConsolidationStatusList is the body of the /v1/consolidations/{status,
// start,stop} routes: one entry per reachable GM, sorted by GM ID.
type ConsolidationStatusList struct {
	Items []ConsolidationStatus `json:"items"`
}

// SeriesSummary describes one latency/size series statistically.
type SeriesSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Stddev float64 `json:"stddev"`
}

// MetricsSnapshot is the GET /v1/metrics body: control-plane counters (VM
// placements, relocations, failovers — gl.gm-failures — and the robustness
// counters gm.monitor-rejects, gm.migration-retries,
// gm.migration-abandoned), point-in-time gauges (telemetry volume), duration
// series summaries (including gl.submit-latency, in milliseconds) and
// fixed-bucket histograms.
type MetricsSnapshot struct {
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Series   map[string]SeriesSummary `json:"series,omitempty"`
	// Histograms carries the fixed-bucket distribution behind each series:
	// lifetime count/sum/extremes plus per-bucket counts (the Prometheus
	// /metrics exposition renders from these).
	Histograms map[string]Histogram `json:"histograms,omitempty"`
}

// Histogram is one observed series' fixed-bucket distribution. Counts[i]
// holds observations <= Bounds[i] (and greater than the previous bound);
// the final entry past the last bound is the +Inf overflow bucket.
type Histogram struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// ---------------------------------------------------------------------------
// Decision traces
// ---------------------------------------------------------------------------

// TraceSpan is one finished decision span of the autonomic loop, as served
// by GET /v1/traces: who decided (policy), over what evidence (view,
// candidates), what it chose and how it ended. Spans sharing a TraceID form
// one causal chain (e.g. submit→dispatch→placement); Parent links a span to
// its parent span within the trace.
type TraceSpan struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
	Parent  string `json:"parent,omitempty"`
	// Kind is the decision kind: dispatch, placement, relocation,
	// migration, energy, consolidation.round or consolidation.migration.
	Kind string `json:"kind"`
	// Entity is the decision subject ("vm/<id>", "node/<id>", ...).
	Entity string `json:"entity,omitempty"`
	// Policy is the deciding scheduling policy's name.
	Policy string `json:"policy,omitempty"`
	// Target is the chosen destination, when any.
	Target  string `json:"target,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	// View is the capacity-view evidence the decision was priced from.
	View *TraceView `json:"view,omitempty"`
	// Candidates lists every considered target with per-candidate
	// rejection reasons, in policy-visit order.
	Candidates []TraceCandidate  `json:"candidates,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceView pins a decision to the telemetry view it consumed.
type TraceView struct {
	// Gen is the series append generation the view was reduced from.
	Gen       uint64 `json:"gen"`
	Samples   int    `json:"samples"`
	Fresh     bool   `json:"fresh"`
	Truncated bool   `json:"truncated,omitempty"`
}

// TraceCandidate is one considered target and, if rejected, why.
type TraceCandidate struct {
	ID     string `json:"id"`
	Chosen bool   `json:"chosen,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// TraceQuery filters GET /v1/traces. Zero filter fields match everything;
// Limit/Offset paginate the matching spans.
type TraceQuery struct {
	TraceID string
	Entity  string
	Kind    string
	Limit   int
	Offset  int
}

// TraceList is the paginated GET /v1/traces body, ordered by trace ID then
// span start time.
type TraceList struct {
	Items      []TraceSpan `json:"items"`
	Total      int         `json:"total"`
	NextOffset int         `json:"nextOffset,omitempty"`
}

// ---------------------------------------------------------------------------
// Telemetry: time series and events
// ---------------------------------------------------------------------------

// Telemetry timestamps are runtime-relative nanoseconds: virtual time for a
// simulated cluster, process uptime for a live one. They order and window
// samples; they are not wall-clock instants.

// SeriesKey names one telemetry series: an entity ("node/<id>", "vm/<id>",
// "gm/<id>") and a metric (e.g. "util", "cpu.used").
type SeriesKey struct {
	Entity string `json:"entity"`
	Metric string `json:"metric"`
}

// SeriesList is the paginated GET /v1/series key listing (no entity param).
type SeriesList struct {
	Items      []SeriesKey `json:"items"`
	Total      int         `json:"total"`
	NextOffset int         `json:"nextOffset,omitempty"`
}

// SeriesPoint is one sample of a series query result.
type SeriesPoint struct {
	AtNs  int64   `json:"atNs"`
	Value float64 `json:"value"`
}

// SeriesQuery parameterizes a windowed series query. The window is
// [FromNs, ToNs] (ToNs <= 0 = unbounded); Agg + StepNs downsample the raw
// window into fixed buckets ("min", "max", "avg", "last" or any "pXX"
// percentile); Limit/Offset paginate the resulting points.
type SeriesQuery struct {
	Entity string
	Metric string
	FromNs int64
	ToNs   int64
	Agg    string
	StepNs int64
	Limit  int
	Offset int
}

// SeriesTier describes one downsampled retention tier of a series: history
// evicted from the raw ring survives here at Step resolution.
type SeriesTier struct {
	StepNs   int64 `json:"stepNs"`
	Capacity int   `json:"capacity"`
	// Points is the tier's retained bucket count.
	Points int `json:"points"`
}

// SeriesData is the GET /v1/series windowed-query body. Besides the queried
// points it reports the series' retention state: the retained range
// [OldestNs, NewestNs], where full-resolution coverage begins (RawFromNs),
// the tier ladder, and whether THIS query's window reached into decimated or
// evicted history (Truncated) — the eviction watermark callers use to
// distinguish a full window from a partial one.
type SeriesData struct {
	Entity string `json:"entity"`
	Metric string `json:"metric"`
	// Agg and StepNs echo the downsampling request ("" / 0 for raw).
	Agg    string        `json:"agg,omitempty"`
	StepNs int64         `json:"stepNs,omitempty"`
	Points []SeriesPoint `json:"points"`
	// Total counts the window's points before pagination.
	Total      int `json:"total"`
	NextOffset int `json:"nextOffset,omitempty"`
	// Retention metadata (zero-valued for an unknown series).
	OldestNs  int64        `json:"oldestNs,omitempty"`
	NewestNs  int64        `json:"newestNs,omitempty"`
	RawFromNs int64        `json:"rawFromNs,omitempty"`
	Truncated bool         `json:"truncated,omitempty"`
	Tiers     []SeriesTier `json:"tiers,omitempty"`
	// Summary is the window's reduced distribution, answered from the
	// store's mergeable quantile sketches (omitted for an empty window).
	Summary *SeriesWindowSummary `json:"summary,omitempty"`
}

// SeriesWindowSummary is the sketch-derived statistical summary of one
// queried series window. Weight counts the raw samples behind the summary —
// on a decimated window it exceeds Count (the stitched point count) because
// each retention bucket stands for the samples folded into it. P50/P95 carry
// a relative error of at most QuantileError (0 when the store runs in exact
// reference mode).
type SeriesWindowSummary struct {
	Count         int     `json:"count"`
	Weight        uint64  `json:"weight"`
	Min           float64 `json:"min"`
	Max           float64 `json:"max"`
	Avg           float64 `json:"avg"`
	P50           float64 `json:"p50"`
	P95           float64 `json:"p95"`
	QuantileError float64 `json:"quantileError,omitempty"`
}

// Event is one entry of the telemetry journal as served by GET /v1/watch:
// threshold crossings (node.overload, node.underload, node.normal), VM
// lifecycle outcomes (vm.state) and hierarchy membership changes
// (hierarchy.*). Seq is strictly monotonic per deployment and is the replay
// cursor (?from=seq).
type Event struct {
	Seq    uint64            `json:"seq"`
	AtNs   int64             `json:"atNs"`
	Type   string            `json:"type"`
	Entity string            `json:"entity,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// ---------------------------------------------------------------------------
// Pagination
// ---------------------------------------------------------------------------

// VMList is the paginated GET /v1/vms body.
type VMList struct {
	Items []VM `json:"items"`
	// Total is the collection size before pagination.
	Total int `json:"total"`
	// NextOffset is set when more items remain past this page.
	NextOffset int `json:"nextOffset,omitempty"`
}

// NodeList is the paginated GET /v1/nodes body.
type NodeList struct {
	Items      []Node `json:"items"`
	Total      int    `json:"total"`
	NextOffset int    `json:"nextOffset,omitempty"`
}

// ---------------------------------------------------------------------------
// Error envelope
// ---------------------------------------------------------------------------

// Error codes carried in the envelope.
const (
	CodeInvalid     = "invalid_argument"
	CodeNotFound    = "not_found"
	CodeUnsupported = "unsupported"
	CodeUnavailable = "unavailable"
	CodeInternal    = "internal"
)

// ErrorBody is the JSON error envelope every /v1 route returns on failure.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}
