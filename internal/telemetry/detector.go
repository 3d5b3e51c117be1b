package telemetry

import (
	"fmt"
	"sync"
	"time"

	"snooze/internal/types"
)

// Thresholds parameterize the node anomaly detector, the deployment's one
// overload/underload classifier (Section II-A's anomaly situations): a
// powered-on node is overloaded when its L∞ utilization exceeds Overload,
// underloaded when it hosts VMs and its L∞ utilization sits below
// Underload. The relocation policies' scheduling.Thresholds are the restore
// targets and normally carry the same values.
type Thresholds struct {
	Overload  float64
	Underload float64
	// Repeat is the per-entity anomaly cooldown: after an anomaly event
	// fires for an entity, further anomaly events — fresh crossings and persisting conditions alike —
	// wait Repeat before firing again. This damps relocation feedback loops
	// (an underload drained into an empty peer re-crosses immediately on the
	// peer) while persisting anomalies still re-emit, so a consumer that
	// failed to act gets another chance. 0 disables the cooldown and the
	// re-emission: every crossing fires, persistence is silent.
	Repeat time.Duration
}

// DefaultThresholds matches scheduling.DefaultThresholds plus a 15s repeat.
func DefaultThresholds() Thresholds {
	return Thresholds{Overload: 0.9, Underload: 0.2, Repeat: 15 * time.Second}
}

// nodeCondition is the detector's per-entity state.
type nodeCondition int

const (
	condNormal nodeCondition = iota
	condOverload
	condUnderload
)

func (c nodeCondition) event() string {
	switch c {
	case condOverload:
		return EventNodeOverload
	case condUnderload:
		return EventNodeUnderload
	default:
		return EventNodeNormal
	}
}

type detectorState struct {
	cond nodeCondition
	// lastAnomaly stamps the last emitted anomaly event (not recoveries);
	// initialized far in the past so a first anomaly always fires.
	lastAnomaly time.Duration
	// announced is true while an emitted anomaly event awaits its closing
	// node.normal; recoveries fire only when set, so consumers always see
	// anomaly/recovery pairs even when a crossing was cooldown-suppressed.
	announced bool
}

// Detector turns per-node utilization observations into edge-triggered
// anomaly events with optional periodic re-emission. The GM feeds it every
// validated monitor report, and its events are the only trigger of
// relocation: an anomaly is acted on once per crossing (plus every Repeat
// while it lasts), no matter how many reports carry it.
type Detector struct {
	th Thresholds

	mu    sync.Mutex
	nodes map[string]*detectorState
}

// NewDetector creates a detector.
func NewDetector(th Thresholds) *Detector {
	if th.Overload <= 0 {
		th = DefaultThresholds()
	}
	return &Detector{th: th, nodes: make(map[string]*detectorState)}
}

// classify evaluates a node status against the thresholds.
func (d *Detector) classify(st types.NodeStatus) nodeCondition {
	if st.Power != types.PowerOn {
		return condNormal
	}
	u := st.Used.Divide(st.Spec.Capacity).NormInf()
	switch {
	case u > d.th.Overload:
		return condOverload
	case len(st.VMs) > 0 && u < d.th.Underload:
		return condUnderload
	default:
		return condNormal
	}
}

// Observe feeds one node observation. It returns an event (without a
// sequence number — publish it through a Journal or Hub) and true when the
// node crossed a threshold, returned to normal after an anomaly, or has
// stayed anomalous for another Repeat interval. Anomaly events respect the
// per-entity Repeat cooldown; recoveries are immediate.
func (d *Detector) Observe(entity string, at time.Duration, st types.NodeStatus) (Event, bool) {
	cond := d.classify(st)
	d.mu.Lock()
	state, ok := d.nodes[entity]
	if !ok {
		state = &detectorState{lastAnomaly: -1 << 62}
		d.nodes[entity] = state
	}
	fire := false
	switch {
	case cond != state.cond:
		// A node's very first observation in a normal state never reaches
		// here (fresh state starts at condNormal), so it is silent.
		state.cond = cond
		if cond == condNormal {
			// Recovery: immediate, but only when an anomaly event was
			// actually published for this episode — a suppressed crossing
			// must not produce an unpaired node.normal.
			fire = state.announced
			state.announced = false
		} else if d.th.Repeat <= 0 || at-state.lastAnomaly >= d.th.Repeat {
			fire = true
			state.lastAnomaly = at
			state.announced = true
		}
	case cond != condNormal && d.th.Repeat > 0 && at-state.lastAnomaly >= d.th.Repeat:
		fire = true
		state.lastAnomaly = at
		state.announced = true
	}
	d.mu.Unlock()
	if !fire {
		return Event{}, false
	}
	u := st.Used.Divide(st.Spec.Capacity).NormInf()
	return Event{
		At:     at,
		Type:   cond.event(),
		Entity: entity,
		Attrs: A(
			"util", fmt.Sprintf("%.3f", u),
			"vms", fmt.Sprintf("%d", len(st.VMs)),
		),
	}, true
}

// Condition reports the detector's current view of an entity:
// "normal", "overload" or "underload".
func (d *Detector) Condition(entity string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.nodes[entity]; ok {
		switch s.cond {
		case condOverload:
			return "overload"
		case condUnderload:
			return "underload"
		}
	}
	return "normal"
}

// Forget drops an entity's state (node removed from the hierarchy).
func (d *Detector) Forget(entity string) {
	d.mu.Lock()
	delete(d.nodes, entity)
	d.mu.Unlock()
}
