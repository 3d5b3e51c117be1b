// Package power models physical-node power draw and energy accounting.
//
// The evaluation in the paper (Section III-B, ref [10]) reports "4.1% of
// energy ... conserved (including energy spent into the computation)". Energy
// is computed from a standard linear host power model: an idle node draws
// IdleWatts and the draw grows linearly with CPU utilization up to BusyWatts
// at 100%. Suspended nodes draw SuspendWatts; transition costs (both time and
// an energy surcharge for suspend/resume cycles) are modelled explicitly so
// that the idle-threshold ablation (experiment E5) captures the break-even
// behaviour of aggressive suspension.
package power

import (
	"fmt"
	"slices"
	"time"

	"snooze/internal/types"
)

// Model describes the power behaviour of one node class.
type Model struct {
	// IdleWatts is the draw of a powered-on node at 0% CPU utilization.
	IdleWatts float64
	// BusyWatts is the draw at 100% CPU utilization.
	BusyWatts float64
	// SuspendWatts is the draw while suspended (suspend-to-RAM keeps DRAM
	// refreshed, so this is small but non-zero).
	SuspendWatts float64
	// OffWatts is the residual draw while powered off (PSU standby).
	OffWatts float64
	// SuspendLatency / WakeLatency are the state-transition durations.
	SuspendLatency time.Duration
	WakeLatency    time.Duration
	// BootLatency is the cold-boot duration from PowerOff.
	BootLatency time.Duration
	// TransitionWatts is the draw during any transition (suspending,
	// waking, booting); transitions typically run the platform near full
	// tilt.
	TransitionWatts float64
}

// DefaultModel is calibrated on the Grid'5000-era hardware class the paper
// evaluated on (Sun Fire X2270-like: ~100W idle, ~220W busy).
func DefaultModel() Model {
	return Model{
		IdleWatts:       100,
		BusyWatts:       220,
		SuspendWatts:    5,
		OffWatts:        2,
		SuspendLatency:  8 * time.Second,
		WakeLatency:     15 * time.Second,
		BootLatency:     120 * time.Second,
		TransitionWatts: 180,
	}
}

// Validate checks the model for physical plausibility.
func (m Model) Validate() error {
	switch {
	case m.IdleWatts < 0 || m.BusyWatts < 0 || m.SuspendWatts < 0 || m.OffWatts < 0 || m.TransitionWatts < 0:
		return fmt.Errorf("power: negative wattage in model %+v", m)
	case m.BusyWatts < m.IdleWatts:
		return fmt.Errorf("power: busy watts %.1f below idle watts %.1f", m.BusyWatts, m.IdleWatts)
	case m.SuspendWatts > m.IdleWatts:
		return fmt.Errorf("power: suspend watts %.1f above idle watts %.1f", m.SuspendWatts, m.IdleWatts)
	case m.SuspendLatency < 0 || m.WakeLatency < 0 || m.BootLatency < 0:
		return fmt.Errorf("power: negative latency in model")
	}
	return nil
}

// Draw returns the instantaneous draw in watts for a node in the given power
// state at the given CPU utilization (0..1). Utilization outside [0,1] is
// clamped.
func (m Model) Draw(state types.PowerState, cpuUtil float64) float64 {
	switch state {
	case types.PowerOn:
		if cpuUtil < 0 {
			cpuUtil = 0
		}
		if cpuUtil > 1 {
			cpuUtil = 1
		}
		return m.IdleWatts + (m.BusyWatts-m.IdleWatts)*cpuUtil
	case types.PowerSuspended:
		return m.SuspendWatts
	case types.PowerOff, types.PowerFailed:
		return m.OffWatts
	case types.PowerSuspending, types.PowerWaking, types.PowerBooting:
		return m.TransitionWatts
	default:
		return 0
	}
}

// Energy returns watt-seconds (joules) drawn over the given duration at a
// fixed state/utilization.
func (m Model) Energy(state types.PowerState, cpuUtil float64, d time.Duration) float64 {
	return m.Draw(state, cpuUtil) * d.Seconds()
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

// Meter integrates the energy of one node over (virtual) time. Callers feed
// it the node's state and utilization at each observation instant; the meter
// accumulates joules assuming the previous observation held since the last
// call. Meter is not safe for concurrent use; each node owns one.
type Meter struct {
	model    Model
	lastT    time.Duration // virtual time of last observation
	lastSt   types.PowerState
	lastUtil float64
	joules   float64
	started  bool
}

// NewMeter creates a meter using the given model.
func NewMeter(m Model) *Meter {
	return &Meter{model: m}
}

// Observe records that at virtual time t the node is in state st with the
// given CPU utilization. Energy for [lastT, t) is charged at the PREVIOUS
// observation's rate (left-continuous step integration). Observations must
// be fed in non-decreasing time order; out-of-order calls are ignored.
func (mt *Meter) Observe(t time.Duration, st types.PowerState, cpuUtil float64) {
	if !mt.started {
		mt.started = true
		mt.lastT, mt.lastSt, mt.lastUtil = t, st, cpuUtil
		return
	}
	if t < mt.lastT {
		return
	}
	mt.joules += mt.model.Energy(mt.lastSt, mt.lastUtil, t-mt.lastT)
	mt.lastT, mt.lastSt, mt.lastUtil = t, st, cpuUtil
}

// Joules returns the accumulated energy.
func (mt *Meter) Joules() float64 { return mt.joules }

// KWh returns the accumulated energy in kilowatt-hours.
func (mt *Meter) KWh() float64 { return mt.joules / 3.6e6 }

// AddJoules charges an explicit energy surcharge (e.g. the consolidation
// computation's own energy, which the paper includes in its 4.1% figure).
func (mt *Meter) AddJoules(j float64) { mt.joules += j }

// ---------------------------------------------------------------------------
// Aggregate cluster accounting
// ---------------------------------------------------------------------------

// ClusterMeter aggregates per-node meters and exposes cluster totals.
type ClusterMeter struct {
	model  Model
	meters map[types.NodeID]*Meter
}

// NewClusterMeter creates an empty cluster meter with the given node model.
func NewClusterMeter(m Model) *ClusterMeter {
	return &ClusterMeter{model: m, meters: make(map[types.NodeID]*Meter)}
}

// Observe forwards an observation for one node, creating its meter on first
// use.
func (c *ClusterMeter) Observe(id types.NodeID, t time.Duration, st types.PowerState, cpuUtil float64) {
	mt, ok := c.meters[id]
	if !ok {
		mt = NewMeter(c.model)
		c.meters[id] = mt
	}
	mt.Observe(t, st, cpuUtil)
}

// TotalJoules returns the sum over all nodes.
func (c *ClusterMeter) TotalJoules() float64 {
	var sum float64
	for _, mt := range c.meters {
		sum += mt.Joules()
	}
	return sum
}

// NodeJoules returns one node's accumulated energy (0 for unknown nodes).
func (c *ClusterMeter) NodeJoules(id types.NodeID) float64 {
	if mt, ok := c.meters[id]; ok {
		return mt.Joules()
	}
	return 0
}

// Nodes returns the number of nodes observed so far.
func (c *ClusterMeter) Nodes() int { return len(c.meters) }

// AddJoules charges a surcharge to the cluster total via a dedicated virtual
// node, keeping per-node figures clean.
func (c *ClusterMeter) AddJoules(j float64) {
	const surchargeNode = types.NodeID("__surcharge__")
	mt, ok := c.meters[surchargeNode]
	if !ok {
		mt = NewMeter(c.model)
		c.meters[surchargeNode] = mt
	}
	mt.AddJoules(j)
}

// ---------------------------------------------------------------------------
// Placement energy estimation (used by the consolidation evaluation)
// ---------------------------------------------------------------------------

// PlacementPower returns the instantaneous cluster draw, in watts, of running
// the given VM demands on the given placement: active hosts draw per the
// linear model at their aggregate CPU utilization, hosts without VMs draw
// SuspendWatts (the consolidation objective assumes freed hosts are
// suspended, per Section III). Demands of VMs missing from the placement are
// ignored. Both sums run in ID order, so equal inputs give bit-identical
// watts; map order would change the last bits from call to call.
func PlacementPower(m Model, placement types.Placement, demand map[types.VMID]types.ResourceVector, nodes map[types.NodeID]types.NodeSpec) float64 {
	usedCPU := make(map[types.NodeID]float64, len(nodes))
	for _, vm := range sortedKeys(placement) {
		usedCPU[placement[vm]] += demand[vm].CPU // hosting any VM marks the node active
	}
	var watts float64
	for _, id := range sortedKeys(nodes) {
		spec := nodes[id]
		cpu, active := usedCPU[id]
		if !active {
			watts += m.SuspendWatts
			continue
		}
		util := 0.0
		if spec.Capacity.CPU > 0 {
			util = cpu / spec.Capacity.CPU
		}
		watts += m.Draw(types.PowerOn, util)
	}
	return watts
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
