// Package snooze is a Go reproduction of Snooze, the scalable, autonomic and
// energy-aware virtual machine management framework of Feller & Morin
// (IPDPS 2012 PhD Forum), together with the paper's Ant Colony Optimization
// VM consolidation algorithm.
//
// The package is a facade over the implementation packages:
//
//   - a self-organizing GL / GM / LC hierarchy with leader election,
//     multicast heartbeats and self-healing (internal/hierarchy,
//     internal/election, internal/coord)
//   - two-level VM scheduling: GL dispatching + GM placement, overload /
//     underload relocation (internal/scheduling)
//   - consolidation algorithms: ACO, First-Fit-Decreasing baselines and an
//     exact branch-and-bound solver (internal/consolidation), executed on a
//     live hierarchy by one engine, the GMs' online optimizer
//     (internal/consolidation/online, ClusterConfig.Manager.Consolidation;
//     MigrationBudget -1 is the paper's periodic reconfiguration)
//   - energy management: idle-server suspend, wake-on-demand and energy
//     accounting (internal/energy semantics live in the GM + internal/power)
//   - a deterministic discrete-event simulation of the physical substrate
//     (internal/simkernel, internal/hypervisor, internal/workload) and a
//     REST transport for real deployments (internal/rest)
//   - a versioned, typed control-plane API (api/v1): JSON DTOs, a Backend
//     interface, /v1 HTTP resource routes (api/v1/server) and a typed Go
//     client (api/v1/client). One backend (api/v1/livebackend) serves the
//     routes from the hierarchy itself, in a live snoozed control process
//     and in a simulated cluster alike, so operator tooling such as
//     cmd/snoozectl works identically against both.
//
// Quick start (simulated cluster):
//
//	top := snooze.Grid5000Topology(16, 2)
//	c := snooze.NewCluster(snooze.DefaultClusterConfig(top, 42))
//	c.Settle(30 * time.Second)
//	resp, err := c.SubmitAndWait(snooze.NewGenerator(1, nil).Batch(10), time.Minute)
//
// Serving the control-plane API over HTTP (any Backend works):
//
//	backend := snooze.NewSimBackend(c, 0)
//	http.ListenAndServe(":7001", snooze.NewAPIHandler(backend))
//
// Consolidation only:
//
//	inst := snooze.NewInstance(snooze.InstanceConfig{Seed: 1, VMs: 100})
//	res, err := snooze.SolveACO(snooze.Problem{VMs: inst.VMs, Nodes: inst.Nodes}, snooze.DefaultACOConfig())
package snooze

import (
	"net/http"
	"time"

	apiv1 "snooze/api/v1"
	apiclient "snooze/api/v1/client"
	apiserver "snooze/api/v1/server"
	"snooze/internal/cluster"
	"snooze/internal/consolidation"
	"snooze/internal/experiments"
	"snooze/internal/telemetry"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// Core domain types.
type (
	// ResourceVector is a 4-dimensional demand/capacity vector (CPU,
	// memory, network rx/tx).
	ResourceVector = types.ResourceVector
	// VMSpec describes a VM submission request.
	VMSpec = types.VMSpec
	// VMID identifies a VM.
	VMID = types.VMID
	// NodeID identifies a physical node.
	NodeID = types.NodeID
	// NodeSpec describes a physical node.
	NodeSpec = types.NodeSpec
	// Placement maps VMs to nodes.
	Placement = types.Placement
	// PowerState is a node power state.
	PowerState = types.PowerState
)

// Node power states (see types.PowerState for the full set).
const (
	PowerOnState        = types.PowerOn
	PowerSuspendedState = types.PowerSuspended
	PowerFailedState    = types.PowerFailed
)

// RV constructs a ResourceVector.
func RV(cpu, mem, rx, tx float64) ResourceVector { return types.RV(cpu, mem, rx, tx) }

// Simulated clusters.
type (
	// Cluster is a fully wired simulated Snooze deployment.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes NewCluster.
	ClusterConfig = cluster.Config
	// Topology describes nodes and hierarchy shape.
	Topology = workload.Topology
)

// NewCluster builds and starts a simulated cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// DefaultClusterConfig returns a ready-to-run configuration.
func DefaultClusterConfig(top Topology, seed int64) ClusterConfig {
	return cluster.DefaultConfig(top, seed)
}

// Grid5000Topology reproduces the paper's testbed shape: n homogeneous
// nodes managed by gms group managers.
func Grid5000Topology(n, gms int) Topology { return workload.Grid5000Topology(n, gms) }

// Workload generation.
type (
	// Generator produces deterministic VM submission streams.
	Generator = workload.Generator
	// Instance is a consolidation problem instance.
	Instance = workload.Instance
	// InstanceConfig parameterizes NewInstance.
	InstanceConfig = workload.InstanceConfig
)

// NewGenerator creates a VM stream generator (nil classes = default mix).
func NewGenerator(seed int64, classes []workload.VMClass) *Generator {
	return workload.NewGenerator(seed, classes)
}

// NewInstance generates a consolidation instance.
func NewInstance(cfg InstanceConfig) Instance { return workload.NewInstance(cfg) }

// Consolidation.
type (
	// Problem is a consolidation input.
	Problem = consolidation.Problem
	// ConsolidationResult is a solver outcome.
	ConsolidationResult = consolidation.Result
	// ACOConfig holds the ant colony parameters.
	ACOConfig = consolidation.ACOConfig
	// Algorithm is a consolidation solver.
	Algorithm = consolidation.Algorithm
)

// DefaultACOConfig returns the calibrated ACO parameters.
func DefaultACOConfig() ACOConfig { return consolidation.DefaultACOConfig() }

// SolveACO runs the paper's ACO consolidation algorithm.
func SolveACO(p Problem, cfg ACOConfig) (ConsolidationResult, error) {
	return consolidation.ACO{Config: cfg}.Solve(p)
}

// SolveFFD runs the First-Fit Decreasing baseline (CPU presort, as in the
// paper's comparison).
func SolveFFD(p Problem) (ConsolidationResult, error) {
	return consolidation.FFD{Key: consolidation.SortCPU}.Solve(p)
}

// SolveOptimal runs the exact branch-and-bound solver (the CPLEX stand-in).
func SolveOptimal(p Problem) (ConsolidationResult, error) {
	return consolidation.Exact{}.Solve(p)
}

// Versioned control-plane API (api/v1).
type (
	// APIBackend is the control-plane surface (api/v1.Backend): served by
	// the hierarchy, live or simulated, and by the typed HTTP client.
	APIBackend = apiv1.Backend
	// APIClient is the typed /v1 HTTP client (api/v1/client.Client).
	APIClient = apiclient.Client
	// APIServer is the configurable /v1 HTTP server (api/v1/server.Server);
	// set StreamContext to bound /v1/watch streams for graceful shutdown.
	APIServer = apiserver.Server
)

// NewSimBackend returns a simulated cluster's /v1 backend (Cluster.API): the
// live backend over the cluster's hierarchy, plus node fault injection.
// maxSim bounds the virtual time one hierarchy call may consume (0 = one
// virtual hour).
func NewSimBackend(c *Cluster, maxSim time.Duration) APIBackend {
	return c.API(maxSim)
}

// NewAPIHandler mounts the /v1 control-plane routes for any backend.
func NewAPIHandler(b APIBackend) http.Handler {
	return apiserver.New(b).Handler()
}

// NewAPIServer returns the configurable /v1 server for any backend (use
// NewAPIHandler when the defaults suffice).
func NewAPIServer(b APIBackend) *APIServer {
	return apiserver.New(b)
}

// NewAPIClient creates a typed client for a /v1 server (e.g. a snoozed
// control process at "http://host:7001").
func NewAPIClient(baseURL string) *APIClient {
	return apiclient.New(baseURL)
}

// Telemetry (internal/telemetry): the time-series store + event journal
// behind GET /v1/series and GET /v1/watch. Every Cluster carries a hub
// (Cluster.Telemetry); live deployments share one across their managers.
type (
	// TelemetryHub bundles the sharded time-series store, the event journal
	// and the node anomaly detector of one deployment.
	TelemetryHub = telemetry.Hub
	// TelemetryOptions parameterizes NewTelemetryHub.
	TelemetryOptions = telemetry.Options
	// TelemetryEvent is one journal entry (node.overload, vm.state, ...).
	TelemetryEvent = telemetry.Event
	// TelemetrySample is one time-series measurement.
	TelemetrySample = telemetry.Sample
)

// NewTelemetryHub creates a telemetry hub (for wiring live deployments; a
// simulated Cluster creates its own).
func NewTelemetryHub(opts TelemetryOptions) *TelemetryHub {
	return telemetry.NewHub(opts)
}

// Experiments.
type (
	// ExperimentResult is one reproduced table/figure.
	ExperimentResult = experiments.Result
	// ExperimentScale selects quick or paper-scale dimensions.
	ExperimentScale = experiments.Scale
)

// Experiment scales.
const (
	ScaleQuick = experiments.ScaleQuick
	ScaleFull  = experiments.ScaleFull
)

// RunAllExperiments reproduces every table/figure of the paper's evaluation.
func RunAllExperiments(scale ExperimentScale) []ExperimentResult {
	return experiments.All(scale)
}

// RunExperiment reproduces one experiment by ID ("e1".."e7", "e9", "a1",
// "a2", "f1" or its name).
func RunExperiment(id string, scale ExperimentScale) (ExperimentResult, error) {
	return experiments.ByID(id, scale)
}
