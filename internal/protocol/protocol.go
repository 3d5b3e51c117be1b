// Package protocol defines the control-plane messages exchanged between
// Snooze components. The paper implements components as "Java RESTful web
// services" (Section II-A); here every message is a JSON-codable struct so
// the identical payloads flow over the in-process bus (simulation) and the
// net/http REST services (deployment, internal/rest).
package protocol

import (
	"snooze/internal/telemetry/sketch"
	"snooze/internal/types"
)

// Message kinds. The naming convention is "<receiver-role>.<operation>".
const (
	// KindGLHeartbeat is multicast by the Group Leader on GroupGL
	// (Section II-D: LCs and EPs "listen for GL heartbeats").
	KindGLHeartbeat = "gl.heartbeat"
	// KindGMHeartbeat is multicast by a GM to its LC group.
	KindGMHeartbeat = "gm.heartbeat"
	// KindGMJoin is sent by a GM to the GL after the election resolves.
	KindGMJoin = "gl.gm-join"
	// KindSummary carries a GM's aggregated resource summary to the GL and
	// doubles as the GM's heartbeat to the GL (Section II-B).
	KindSummary = "gl.summary"
	// KindLCAssign is sent by an unassigned LC to the GL to request a GM
	// assignment (Section II-D).
	KindLCAssign = "gl.lc-assign"
	// KindLCJoin is sent by an LC to its assigned GM.
	KindLCJoin = "gm.lc-join"
	// KindMonitor carries an LC's periodic monitoring data to its GM and
	// doubles as the LC heartbeat (Section II-B).
	KindMonitor = "gm.monitor"
	// KindAnomaly reports a local overload/underload situation to the GM
	// (Section II-A).
	KindAnomaly = "gm.anomaly"
	// KindSubmit is a client VM submission to the GL (via an EP).
	KindSubmit = "gl.submit"
	// KindPlace is the GL's placement probe to one candidate GM.
	KindPlace = "gm.place"
	// KindStartVM instructs an LC to instantiate a VM.
	KindStartVM = "lc.start-vm"
	// KindStopVM instructs an LC to destroy a VM.
	KindStopVM = "lc.stop-vm"
	// KindMigrateVM instructs the source LC to live-migrate a VM.
	KindMigrateVM = "lc.migrate-vm"
	// KindSuspendHost instructs an idle LC to enter the admin-specified
	// low-power state (Section III).
	KindSuspendHost = "lc.suspend"
	// KindWakeHost is delivered out-of-band (IPMI/Wake-on-LAN analogue) to
	// a suspended node.
	KindWakeHost = "oob.wake"
	// KindGLQuery asks an Entry Point for the current GL address.
	KindGLQuery = "ep.gl-query"
	// KindTopology asks the GL for the current hierarchy layout (used by
	// the CLI's visualization/export, Section II-A).
	KindTopology = "gl.topology"
	// KindShed asks an over-subscribed GM to release some of its LCs back
	// into the hierarchy (the GL's rebalancing lever once autonomic role
	// assignment grows the GM population, Section V future work).
	KindShed = "gm.shed"
	// KindRejoin instructs an LC to leave its GM and run the join protocol
	// again (it will be assigned to the least-loaded GM).
	KindRejoin = "lc.rejoin"
)

// ShedRequest asks a GM to release up to Count LCs.
type ShedRequest struct {
	Count int `json:"count"`
}

// ShedResponse reports how many LCs the GM released.
type ShedResponse struct {
	Released int `json:"released"`
}

// Multicast group names.
const (
	// GroupGL carries GL heartbeats; EPs and unassigned LCs subscribe.
	GroupGL = "snooze.gl"
	// GroupGMPrefix + GM ID carries one GM's heartbeats to its LCs.
	GroupGMPrefix = "snooze.gm."
)

// GLHeartbeat announces the current Group Leader.
type GLHeartbeat struct {
	Addr  string `json:"addr"`  // bus/REST address of the GL
	Epoch uint64 `json:"epoch"` // bumped on every leadership change
}

// GMHeartbeat announces a live GM to its LC group.
type GMHeartbeat struct {
	GM   types.GroupManagerID `json:"gm"`
	Addr string               `json:"addr"`
}

// GMJoinRequest enrolls a GM with the GL.
type GMJoinRequest struct {
	GM   types.GroupManagerID `json:"gm"`
	Addr string               `json:"addr"`
}

// GMJoinResponse acknowledges enrollment.
type GMJoinResponse struct {
	Accepted bool `json:"accepted"`
}

// SummaryUpdate is a GM's periodic aggregate (Section II-B). Rollup reports
// that the sending GM also appends its own gm/<id> rollup series on monitor
// ingestion, so a GL sharing the sender's telemetry hub need not re-record
// the summary.
//
// UtilSketch carries the mergeable quantile sketch of the group's member
// node-util distribution: the GM merges its per-node util sketches and ships
// the result, so the GL's group capacity views answer p50/p95 over the
// members' actual utilization instead of over the rollup series of group
// averages (whose quantiles are quantiles-of-averages). Scheduling carries
// the sender's own active policy configuration, so a GL fronting a
// mixed-policy deployment can report which policies each group actually runs.
type SummaryUpdate struct {
	Summary    types.GroupSummary `json:"summary"`
	Addr       string             `json:"addr"`
	Rollup     bool               `json:"rollup,omitempty"`
	UtilSketch *sketch.Encoded    `json:"utilSketch,omitempty"`
	Scheduling *SchedulingInfo    `json:"scheduling,omitempty"`
}

// LCAssignRequest asks the GL for a GM assignment.
type LCAssignRequest struct {
	Spec types.NodeSpec `json:"spec"`
}

// LCAssignResponse carries the assigned GM.
type LCAssignResponse struct {
	GM   types.GroupManagerID `json:"gm"`
	Addr string               `json:"addr"`
}

// LCJoinRequest enrolls an LC (and its current VMs, after a rejoin) with a GM.
type LCJoinRequest struct {
	Addr   string           `json:"addr"`
	OOB    string           `json:"oob"` // out-of-band wake address
	Status types.NodeStatus `json:"status"`
	VMs    []types.VMStatus `json:"vms"`
}

// LCJoinResponse acknowledges the join.
type LCJoinResponse struct {
	Accepted bool `json:"accepted"`
}

// MonitorReport is the LC→GM periodic monitoring message. AtNs stamps the
// measurement in the sender's runtime-relative clock; the GM rejects reports
// stamped in the future (a corrupted or replayed report) before they reach
// the telemetry store or the anomaly detector. 0 means unstamped (accepted,
// ingested at arrival time) for compatibility with hand-crafted reports.
type MonitorReport struct {
	Status types.NodeStatus `json:"status"`
	VMs    []types.VMStatus `json:"vms"`
	AtNs   int64            `json:"atNs,omitempty"`
}

// AnomalyKind distinguishes overload from underload events.
type AnomalyKind int

// Anomaly kinds.
const (
	AnomalyOverload AnomalyKind = iota
	AnomalyUnderload
)

// String implements fmt.Stringer.
func (k AnomalyKind) String() string {
	if k == AnomalyOverload {
		return "overload"
	}
	return "underload"
}

// AnomalyReport is the LC→GM anomaly event (Section II-A).
type AnomalyReport struct {
	Kind   AnomalyKind      `json:"kind"`
	Status types.NodeStatus `json:"status"`
	VMs    []types.VMStatus `json:"vms"`
}

// SubmitRequest is a client VM submission.
type SubmitRequest struct {
	VMs []types.VMSpec `json:"vms"`
}

// SubmitResponse reports per-VM placement outcomes.
type SubmitResponse struct {
	Placed   map[types.VMID]types.NodeID `json:"placed"`
	Unplaced []types.VMID                `json:"unplaced"`
}

// PlaceRequest is the GL's probe asking one GM to place VMs (the linear
// search step of Section II-C).
type PlaceRequest struct {
	VMs []types.VMSpec `json:"vms"`
	// TraceID/ParentSpan carry the dispatch decision's trace across the
	// GL→GM hop, so the placement span joins the submit chain. Empty when
	// tracing is disabled or the trace was sampled out.
	TraceID    string `json:"traceId,omitempty"`
	ParentSpan string `json:"parentSpan,omitempty"`
}

// PlaceResponse reports which of the probed VMs the GM managed to place.
type PlaceResponse struct {
	Placed   map[types.VMID]types.NodeID `json:"placed"`
	Unplaced []types.VMID                `json:"unplaced"`
}

// StartVMRequest instructs an LC to start a VM.
type StartVMRequest struct {
	Spec types.VMSpec `json:"spec"`
	// TraceID/ParentSpan carry the placement decision's trace across the
	// GM→LC hop (the LC echoes them back untouched today).
	TraceID    string `json:"traceId,omitempty"`
	ParentSpan string `json:"parentSpan,omitempty"`
}

// StartVMResponse acknowledges (or refuses) the start.
type StartVMResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// StopVMRequest instructs an LC to destroy a VM.
type StopVMRequest struct {
	VM types.VMID `json:"vm"`
}

// MigrateVMRequest instructs the source LC to live-migrate a VM to the
// destination LC's node.
type MigrateVMRequest struct {
	VM       types.VMID   `json:"vm"`
	DestNode types.NodeID `json:"destNode"`
	DestAddr string       `json:"destAddr"`
	// TraceID/ParentSpan carry the relocation/consolidation decision's
	// trace across the GM→LC hop.
	TraceID    string `json:"traceId,omitempty"`
	ParentSpan string `json:"parentSpan,omitempty"`
}

// MigrateVMResponse reports migration initiation/completion.
type MigrateVMResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// GLQueryResponse is the EP's answer to a GL discovery query.
type GLQueryResponse struct {
	Addr  string `json:"addr"`
	Known bool   `json:"known"`
}

// TopologyRequest parameterizes the hierarchy export; Deep makes the GL fan
// out to its GMs and include per-LC detail (the CLI's "live visualizing and
// exporting of the hierarchy organization", Section II-A).
type TopologyRequest struct {
	Deep bool `json:"deep,omitempty"`
}

// TopologyLC describes one Local Controller in a deep topology export.
type TopologyLC struct {
	ID       types.NodeID         `json:"id"`
	Power    string               `json:"power"`
	VMs      int                  `json:"vms"`
	Reserved types.ResourceVector `json:"reserved"`
	Capacity types.ResourceVector `json:"capacity"`
}

// TopologyGM describes one GM in a topology export. Scheduling is the GM's
// own reported policy configuration (learned from its summary pushes), so the
// export surfaces mixed-policy deployments; nil when the GM has not reported
// it yet.
type TopologyGM struct {
	GM         types.GroupManagerID `json:"gm"`
	Addr       string               `json:"addr"`
	Summary    types.GroupSummary   `json:"summary"`
	Scheduling *SchedulingInfo      `json:"scheduling,omitempty"`
	LCs        []TopologyLC         `json:"lcs,omitempty"` // deep export only
}

// SchedulingInfo is the active scheduling configuration carried by topology
// exports: the policy names of the two scheduling levels, the demand
// estimator, and the capacity-view horizon the policies consume.
type SchedulingInfo struct {
	Dispatch      string `json:"dispatch"`
	Placement     string `json:"placement"`
	Overload      string `json:"overload"`
	Underload     string `json:"underload"`
	Estimator     string `json:"estimator,omitempty"`
	ViewHorizonNs int64  `json:"viewHorizonNs,omitempty"`
}

// TopologyResponse is the GL's hierarchy export (CLI visualization).
type TopologyResponse struct {
	GL         string         `json:"gl"`
	GMs        []TopologyGM   `json:"gms"`
	Scheduling SchedulingInfo `json:"scheduling"`
}

// KindLCList asks a GM for its LC inventory (used by deep topology export).
const KindLCList = "gm.lc-list"

// LCListResponse is a GM's LC inventory.
type LCListResponse struct {
	LCs []TopologyLC `json:"lcs"`
}

// KindInventory asks a GM for its resource inventory: the monitored status
// of its managed LCs and the VMs they host, narrowed by an InventoryRequest
// to what the caller will return. The api/v1 live backend aggregates the
// per-GM replies into the /v1/vms and /v1/nodes resources.
const KindInventory = "gm.inventory"

// InventoryRequest narrows a gm.inventory reply. The zero value asks for
// everything, and it is what a sender that predates this type produces: its
// empty, {} or null payload decodes to it, and its in-process struct{}{} is
// read as it. A receiver that predates the type ignores the payload and
// answers in full, so callers filter the reply by what they asked for.
type InventoryRequest struct {
	// VM asks for that VM alone: the reply holds its status and the nodes
	// hosting it, or nothing when this GM does not know the VM.
	VM types.VMID `json:"vm,omitempty"`
	// NodesOnly leaves the VM statuses out of the reply (a node's status
	// still lists its VM IDs).
	NodesOnly bool `json:"nodesOnly,omitempty"`
}

// InventoryNode is one LC's monitored status plus the age of its last
// monitor report. During hierarchy churn (a rejoin after a GL change) two
// GMs may briefly both claim an LC — the previous GM keeps a stale record
// until its sweep expires it — so aggregators keep the freshest claim.
type InventoryNode struct {
	Status types.NodeStatus `json:"status"`
	AgeNs  int64            `json:"ageNs"`
}

// InventoryResponse is a GM's resource inventory. VM statuses carry the
// hosting node in their Node field. Scheduling is the responding GM's own
// active policy configuration — per-GM ground truth for deployments whose
// groups run different policies than the GL's template suggests.
type InventoryResponse struct {
	Nodes      []InventoryNode  `json:"nodes"`
	VMs        []types.VMStatus `json:"vms"`
	Scheduling SchedulingInfo   `json:"scheduling"`
}

// KindConsolidation controls one GM's online consolidation optimizer
// (internal/consolidation/online). The api/v1 control-plane backends fan it
// out to every GM for GET /v1/consolidations/status and the start/stop
// routes.
const KindConsolidation = "gm.consolidation"

// Consolidation control actions.
const (
	ConsolidationStatus = "status"
	ConsolidationStart  = "start"
	ConsolidationStop   = "stop"
)

// ConsolidationCtlRequest asks a GM to report, start or stop its online
// consolidation optimizer. An empty Action means status.
type ConsolidationCtlRequest struct {
	Action string `json:"action"`
}

// ConsolidationRound summarizes one completed consolidation round.
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

// ConsolidationCtlResponse reports one GM's optimizer state after the
// requested action was applied.
type ConsolidationCtlResponse struct {
	GM         types.GroupManagerID `json:"gm"`
	Running    bool                 `json:"running"`
	InRound    bool                 `json:"inRound"`
	Rounds     uint64               `json:"rounds"`
	Migrations uint64               `json:"migrations"`
	Cancels    uint64               `json:"cancels"`
	Failures   uint64               `json:"failures"`
	Budget     int                  `json:"budget"`
	PeriodNs   int64                `json:"periodNs"`
	LastRound  *ConsolidationRound  `json:"lastRound,omitempty"`
}
