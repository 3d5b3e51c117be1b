// Package hypervisor simulates a physical node: the VM lifecycle (boot, run,
// live-migrate, terminate), capacity accounting, the host power-state
// machine (on / suspend / wake / off / failed) and time-varying VM demand
// driven by workload traces.
//
// This package substitutes for the paper's Grid'5000 nodes with libvirt/KVM
// hypervisors (DESIGN.md §2). The management plane above it — Local
// Controllers, Group Managers, the Group Leader — is the system under test
// and is fully real; only instruction execution inside VMs is abstracted to
// utilization traces. Live migration uses the standard pre-copy cost model
// (transfer time ≈ VM memory / migration bandwidth), which is what makes
// relocation and consolidation decisions carry a realistic price.
package hypervisor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snooze/internal/power"
	"snooze/internal/simkernel"
	"snooze/internal/types"
	"snooze/internal/workload"
)

// Errors returned by node operations.
var (
	ErrNotAvailable   = errors.New("hypervisor: node not in a state to host VMs")
	ErrInsufficient   = errors.New("hypervisor: insufficient capacity")
	ErrUnknownVM      = errors.New("hypervisor: unknown VM")
	ErrDuplicateVM    = errors.New("hypervisor: VM already present")
	ErrBadTransition  = errors.New("hypervisor: invalid power transition")
	ErrMigrationBusy  = errors.New("hypervisor: VM already migrating")
	ErrNodeFailed     = errors.New("hypervisor: node failed")
	ErrNotSuspendable = errors.New("hypervisor: node hosts VMs")
)

// Config parameterizes node behaviour.
type Config struct {
	// Power is the node power/energy model.
	Power power.Model
	// VMBootDelay is the time from StartVM to the VM entering VMRunning.
	VMBootDelay time.Duration
	// MigrationMBps is the live-migration bandwidth in megabytes/s used to
	// derive transfer time from VM memory size.
	MigrationMBps float64
	// Traces resolves VMSpec.TraceID to utilization traces; nil means
	// every VM runs flat at its reservation.
	Traces *workload.Registry
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Power:         power.DefaultModel(),
		VMBootDelay:   2 * time.Second,
		MigrationMBps: 1000, // 10 GbE class
		Traces:        nil,
	}
}

type vmInstance struct {
	spec      types.VMSpec
	state     types.VMState
	bootTimer simkernel.Canceler
	migrating bool
}

// PowerListener observes completed node power transitions (for the energy
// manager and for metering).
type PowerListener func(id types.NodeID, state types.PowerState)

// Node is one simulated physical machine. Safe for concurrent use.
type Node struct {
	rt  simkernel.Runtime
	cfg Config

	mu         sync.Mutex
	spec       types.NodeSpec
	pwr        types.PowerState
	vms        map[types.VMID]*vmInstance
	generation uint64
	idleSince  time.Duration // time the node last became VM-free
	meter      *power.Meter
	listeners  []PowerListener
	transition simkernel.Canceler
	migrations uint64
	started    uint64
	stopped    uint64
}

// NewNode creates a powered-on, empty node.
func NewNode(rt simkernel.Runtime, spec types.NodeSpec, cfg Config) *Node {
	if cfg.MigrationMBps <= 0 {
		cfg.MigrationMBps = 1000
	}
	n := &Node{
		rt:         rt,
		cfg:        cfg,
		spec:       spec,
		pwr:        types.PowerOn,
		vms:        make(map[types.VMID]*vmInstance),
		generation: 1,
		idleSince:  rt.Now(),
		meter:      power.NewMeter(cfg.Power),
	}
	n.meter.Observe(rt.Now(), types.PowerOn, 0)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() types.NodeID { return n.spec.ID }

// Spec returns the node's static description.
func (n *Node) Spec() types.NodeSpec { return n.spec }

// OnPowerChange registers a listener for completed power transitions.
func (n *Node) OnPowerChange(l PowerListener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listeners = append(n.listeners, l)
}

func (n *Node) notify(state types.PowerState) {
	n.mu.Lock()
	ls := append([]PowerListener(nil), n.listeners...)
	id := n.spec.ID
	n.mu.Unlock()
	for _, l := range ls {
		l(id, state)
	}
}

// ---------------------------------------------------------------------------
// Capacity / monitoring
// ---------------------------------------------------------------------------

// Reserved returns the sum of reservations of all present VMs.
func (n *Node) Reserved() types.ResourceVector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reservedLocked()
}

func (n *Node) reservedLocked() types.ResourceVector {
	var sum types.ResourceVector
	for _, vm := range n.vms {
		sum = sum.Add(vm.spec.Requested)
	}
	return sum
}

// Usage returns the current measured utilization: the sum over running VMs
// of their trace demand, clamped to node capacity (a saturated host cannot
// deliver more than it has — that is exactly an overload).
func (n *Node) Usage() types.ResourceVector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.usageLocked()
}

func (n *Node) usageLocked() types.ResourceVector {
	now := n.rt.Now()
	var sum types.ResourceVector
	for _, vm := range n.vms {
		sum = sum.Add(n.vmUsageLocked(vm, now))
	}
	return sum.Min(n.spec.Capacity)
}

// vmUsageLocked returns a VM's measured demand at now: its reservation scaled
// by its trace, zero unless it runs (a migrating VM still runs at its source).
func (n *Node) vmUsageLocked(vm *vmInstance, now time.Duration) types.ResourceVector {
	if vm.state != types.VMRunning && vm.state != types.VMMigrating {
		return types.ResourceVector{}
	}
	frac := types.RV(1, 1, 1, 1)
	if n.cfg.Traces != nil {
		frac = n.cfg.Traces.Lookup(vm.spec.TraceID).At(now)
	}
	return types.ResourceVector{
		CPU:    vm.spec.Requested.CPU * frac.CPU,
		Memory: vm.spec.Requested.Memory * frac.Memory,
		NetRx:  vm.spec.Requested.NetRx * frac.NetRx,
		NetTx:  vm.spec.Requested.NetTx * frac.NetTx,
	}
}

// Status returns the monitored node view (what the LC reports to its GM).
func (n *Node) Status() types.NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.statusLocked(nil)
}

// VMs returns the statuses of all present VMs.
func (n *Node) VMs() []types.VMStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.rt.Now()
	out := make([]types.VMStatus, 0, len(n.vms))
	for _, vm := range n.vms {
		out = append(out, n.vmStatusLocked(vm, n.vmUsageLocked(vm, now)))
	}
	return out
}

// Snapshot returns Status and VMs as of one instant: one lock hold and one
// walk of the VM table, so both list the same VMs in the same order
// (st.VMs[i] == vms[i].Spec.ID). The LC builds each monitor report from it.
func (n *Node) Snapshot() (st types.NodeStatus, vms []types.VMStatus) {
	n.mu.Lock()
	defer n.mu.Unlock()
	vms = make([]types.VMStatus, 0, len(n.vms))
	return n.statusLocked(&vms), vms
}

// statusLocked builds the node view in one walk of the VM table. When vms is
// not nil, each VM's status is appended to it in the order of st.VMs.
func (n *Node) statusLocked(vms *[]types.VMStatus) types.NodeStatus {
	st := types.NodeStatus{
		Spec:       n.spec,
		Power:      n.pwr,
		Generation: n.generation,
	}
	if len(n.vms) == 0 {
		st.Idle = true
		st.IdleSince = int64(n.idleSince)
		return st
	}
	now := n.rt.Now()
	st.VMs = make([]types.VMID, 0, len(n.vms))
	for id, vm := range n.vms {
		used := n.vmUsageLocked(vm, now)
		st.VMs = append(st.VMs, id)
		st.Used = st.Used.Add(used)
		st.Reserved = st.Reserved.Add(vm.spec.Requested)
		if vms != nil {
			*vms = append(*vms, n.vmStatusLocked(vm, used))
		}
	}
	st.Used = st.Used.Min(n.spec.Capacity)
	return st
}

func (n *Node) vmStatusLocked(vm *vmInstance, used types.ResourceVector) types.VMStatus {
	return types.VMStatus{Spec: vm.spec, State: vm.state, Node: n.spec.ID, Used: used}
}

// Power returns the current power state.
func (n *Node) Power() types.PowerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pwr
}

// Generation returns the boot generation (bumped on wake/boot/recover).
func (n *Node) Generation() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.generation
}

// Counters returns lifetime (started, stopped, migrations) VM counts.
func (n *Node) Counters() (started, stopped, migrations uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.started, n.stopped, n.migrations
}

// ---------------------------------------------------------------------------
// Energy metering
// ---------------------------------------------------------------------------

// MeterSample records the node's current draw into its energy meter; the
// cluster harness calls this on every monitoring tick and state change.
func (n *Node) MeterSample() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.meterSampleLocked()
}

func (n *Node) meterSampleLocked() {
	util := 0.0
	if n.spec.Capacity.CPU > 0 {
		util = n.usageLocked().CPU / n.spec.Capacity.CPU
	}
	n.meter.Observe(n.rt.Now(), n.pwr, util)
}

// EnergyJoules returns energy accumulated up to the last MeterSample.
func (n *Node) EnergyJoules() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.meter.Joules()
}

// ---------------------------------------------------------------------------
// VM lifecycle
// ---------------------------------------------------------------------------

// StartVM instantiates a VM; it enters VMRunning after VMBootDelay. The
// reservation is admission-controlled against total capacity.
func (n *Node) StartVM(spec types.VMSpec) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pwr != types.PowerOn {
		return fmt.Errorf("%w: %s is %s", ErrNotAvailable, n.spec.ID, n.pwr)
	}
	if _, dup := n.vms[spec.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateVM, spec.ID)
	}
	if !n.reservedLocked().Add(spec.Requested).FitsIn(n.spec.Capacity) {
		return fmt.Errorf("%w: %s on %s", ErrInsufficient, spec.ID, n.spec.ID)
	}
	n.meterSampleLocked()
	vm := &vmInstance{spec: spec, state: types.VMBooting}
	n.vms[spec.ID] = vm
	n.started++
	gen := n.generation
	vm.bootTimer = n.rt.After(n.cfg.VMBootDelay, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.generation != gen { // node rebooted under us
			return
		}
		if cur, ok := n.vms[spec.ID]; ok && cur.state == types.VMBooting {
			cur.state = types.VMRunning
			n.meterSampleLocked()
		}
	})
	return nil
}

// StopVM destroys a VM immediately.
func (n *Node) StopVM(id types.VMID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	vm, ok := n.vms[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownVM, id)
	}
	if vm.bootTimer != nil {
		vm.bootTimer.Cancel()
	}
	n.meterSampleLocked()
	delete(n.vms, id)
	n.stopped++
	if len(n.vms) == 0 {
		n.idleSince = n.rt.Now()
	}
	return nil
}

// HasVM reports whether id is present.
func (n *Node) HasVM(id types.VMID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.vms[id]
	return ok
}

// MigrationDuration returns the modelled pre-copy transfer time for a VM of
// the given memory reservation.
func (n *Node) MigrationDuration(spec types.VMSpec) time.Duration {
	secs := spec.Requested.Memory / n.cfg.MigrationMBps
	return time.Duration(secs * float64(time.Second))
}

// MigrateTo live-migrates a VM to dst. Destination capacity is reserved for
// the whole transfer; the VM keeps running on the source (pre-copy) and
// switches over at completion. done (optional) receives the outcome.
func (n *Node) MigrateTo(id types.VMID, dst *Node, done func(error)) error {
	report := func(err error) {
		if done != nil {
			n.rt.After(0, func() { done(err) })
		}
	}
	n.mu.Lock()
	vm, ok := n.vms[id]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownVM, id)
	}
	if vm.migrating {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrMigrationBusy, id)
	}
	if vm.state != types.VMRunning {
		n.mu.Unlock()
		return fmt.Errorf("hypervisor: VM %s not running (%s)", id, vm.state)
	}
	spec := vm.spec
	srcGen := n.generation
	n.mu.Unlock()

	if dst == nil || dst == n {
		return errors.New("hypervisor: invalid migration destination")
	}
	// Reserve on destination (shadow VM in Booting state holds capacity).
	dst.mu.Lock()
	if dst.pwr != types.PowerOn {
		dst.mu.Unlock()
		return fmt.Errorf("%w: destination %s is %s", ErrNotAvailable, dst.spec.ID, dst.pwr)
	}
	if _, dup := dst.vms[id]; dup {
		dst.mu.Unlock()
		return fmt.Errorf("%w: %s on destination", ErrDuplicateVM, id)
	}
	if !dst.reservedLocked().Add(spec.Requested).FitsIn(dst.spec.Capacity) {
		dst.mu.Unlock()
		return fmt.Errorf("%w: destination %s", ErrInsufficient, dst.spec.ID)
	}
	dst.vms[id] = &vmInstance{spec: spec, state: types.VMBooting}
	dstGen := dst.generation
	dst.mu.Unlock()

	n.mu.Lock()
	vm.migrating = true
	vm.state = types.VMMigrating
	n.mu.Unlock()

	n.rt.After(n.MigrationDuration(spec), func() {
		// Evaluate both endpoints before committing: a transfer only
		// succeeds if the source survived long enough to finish pre-copy
		// AND the destination is still up to receive the switch-over.
		dst.mu.Lock()
		dstAlive := dst.generation == dstGen && dst.pwr == types.PowerOn
		dst.mu.Unlock()
		n.mu.Lock()
		srcAlive := n.generation == srcGen && n.pwr == types.PowerOn

		if srcAlive && dstAlive {
			n.meterSampleLocked()
			delete(n.vms, id)
			n.migrations++
			if len(n.vms) == 0 {
				n.idleSince = n.rt.Now()
			}
			n.mu.Unlock()
			dst.mu.Lock()
			if cur, ok := dst.vms[id]; ok {
				cur.state = types.VMRunning
				dst.meterSampleLocked()
			}
			dst.mu.Unlock()
			report(nil)
			return
		}
		// Abort: the VM stays (or dies) with the source; release the
		// destination-side reservation.
		if srcAlive {
			if cur, ok := n.vms[id]; ok {
				cur.migrating = false
				cur.state = types.VMRunning
			}
		}
		n.mu.Unlock()
		dst.mu.Lock()
		if dstAlive {
			delete(dst.vms, id)
			if len(dst.vms) == 0 {
				dst.idleSince = dst.rt.Now()
			}
		}
		dst.mu.Unlock()
		report(fmt.Errorf("hypervisor: migration of %s aborted by node failure", id))
	})
	return nil
}

// ---------------------------------------------------------------------------
// Power state machine
// ---------------------------------------------------------------------------

// Suspend transitions an idle node PowerOn → PowerSuspending → PowerSuspended.
// Nodes hosting VMs refuse (the paper suspends idle LCs only).
func (n *Node) Suspend() error {
	n.mu.Lock()
	if n.pwr != types.PowerOn {
		n.mu.Unlock()
		return fmt.Errorf("%w: suspend from %s", ErrBadTransition, n.pwr)
	}
	if len(n.vms) > 0 {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d VMs present", ErrNotSuspendable, len(n.vms))
	}
	n.meterSampleLocked()
	n.pwr = types.PowerSuspending
	n.meterSampleLocked() // start charging at the transition rate
	gen := n.generation
	n.transition = n.rt.After(n.cfg.Power.SuspendLatency, func() {
		n.completeTransition(gen, types.PowerSuspending, types.PowerSuspended, false)
	})
	n.mu.Unlock()
	n.notify(types.PowerSuspending)
	return nil
}

// Wake transitions PowerSuspended → PowerWaking → PowerOn.
func (n *Node) Wake() error {
	n.mu.Lock()
	if n.pwr != types.PowerSuspended {
		n.mu.Unlock()
		return fmt.Errorf("%w: wake from %s", ErrBadTransition, n.pwr)
	}
	n.meterSampleLocked()
	n.pwr = types.PowerWaking
	n.meterSampleLocked() // start charging at the transition rate
	gen := n.generation
	n.transition = n.rt.After(n.cfg.Power.WakeLatency, func() {
		n.completeTransition(gen, types.PowerWaking, types.PowerOn, true)
	})
	n.mu.Unlock()
	n.notify(types.PowerWaking)
	return nil
}

// Fail crash-stops the node: all VMs are lost, pending transitions cancelled.
func (n *Node) Fail() {
	n.setTerminalState(types.PowerFailed)
}

func (n *Node) setTerminalState(st types.PowerState) {
	n.mu.Lock()
	n.meterSampleLocked()
	if n.transition != nil {
		n.transition.Cancel()
		n.transition = nil
	}
	for id, vm := range n.vms {
		if vm.bootTimer != nil {
			vm.bootTimer.Cancel()
		}
		delete(n.vms, id)
	}
	n.pwr = st
	n.meterSampleLocked()
	n.mu.Unlock()
	n.notify(st)
}

// Boot restarts a node from PowerOff or PowerFailed (repair): PowerBooting →
// PowerOn after BootLatency, with a fresh generation.
func (n *Node) Boot() error {
	n.mu.Lock()
	if n.pwr != types.PowerOff && n.pwr != types.PowerFailed {
		n.mu.Unlock()
		return fmt.Errorf("%w: boot from %s", ErrBadTransition, n.pwr)
	}
	n.meterSampleLocked()
	n.pwr = types.PowerBooting
	n.meterSampleLocked() // start charging at the transition rate
	gen := n.generation
	n.transition = n.rt.After(n.cfg.Power.BootLatency, func() {
		n.completeTransition(gen, types.PowerBooting, types.PowerOn, true)
	})
	n.mu.Unlock()
	n.notify(types.PowerBooting)
	return nil
}

func (n *Node) completeTransition(gen uint64, from, to types.PowerState, bumpGen bool) {
	n.mu.Lock()
	if n.generation != gen || n.pwr != from {
		n.mu.Unlock()
		return
	}
	n.meterSampleLocked()
	n.pwr = to
	if bumpGen {
		n.generation++
		n.idleSince = n.rt.Now()
	}
	n.meterSampleLocked()
	n.mu.Unlock()
	n.notify(to)
}
