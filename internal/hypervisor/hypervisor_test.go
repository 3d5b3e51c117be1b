package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"snooze/internal/simkernel"
	"snooze/internal/types"
	"snooze/internal/workload"
)

func testNode(k *simkernel.Kernel) *Node {
	return NewNode(k, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, DefaultConfig())
}

func vm(id string, cpu, mem float64) types.VMSpec {
	return types.VMSpec{ID: types.VMID(id), Requested: types.RV(cpu, mem, 10, 10)}
}

func TestStartVMLifecycle(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	if err := n.StartVM(vm("v1", 2, 2048)); err != nil {
		t.Fatal(err)
	}
	st := n.Status()
	if len(st.VMs) != 1 || st.IdleSince != 0 {
		t.Fatalf("status: %+v", st)
	}
	vms := n.VMs()
	if vms[0].State != types.VMBooting {
		t.Fatalf("state before boot: %v", vms[0].State)
	}
	k.Run(5 * time.Second) // boot delay 2s
	if got := n.VMs()[0].State; got != types.VMRunning {
		t.Fatalf("state after boot: %v", got)
	}
	started, stopped, _ := n.Counters()
	if started != 1 || stopped != 0 {
		t.Fatalf("counters: %d %d", started, stopped)
	}
}

func TestStartVMErrors(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	if err := n.StartVM(vm("v1", 6, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := n.StartVM(vm("v1", 1, 1024)); !errors.Is(err, ErrDuplicateVM) {
		t.Fatalf("dup: %v", err)
	}
	if err := n.StartVM(vm("v2", 4, 1024)); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("capacity: %v", err)
	}
	// Memory dimension enforced independently.
	if err := n.StartVM(vm("v3", 1, 20000)); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("mem capacity: %v", err)
	}
	n.Fail()
	if err := n.StartVM(vm("v4", 1, 1024)); !errors.Is(err, ErrNotAvailable) {
		t.Fatalf("failed node: %v", err)
	}
}

func TestStopVM(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	n.StartVM(vm("v1", 2, 2048))
	k.Run(5 * time.Second)
	if err := n.StopVM("v1"); err != nil {
		t.Fatal(err)
	}
	if n.HasVM("v1") {
		t.Fatal("VM still present")
	}
	if err := n.StopVM("v1"); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("double stop: %v", err)
	}
	st := n.Status()
	if st.IdleSince != int64(5*time.Second) {
		t.Fatalf("idleSince: %d", st.IdleSince)
	}
}

func TestStopDuringBootCancelsTimer(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	n.StartVM(vm("v1", 2, 2048))
	n.StopVM("v1")
	k.Run(5 * time.Second)
	if n.HasVM("v1") {
		t.Fatal("stopped VM reappeared after boot timer")
	}
}

func TestReservedAndUsage(t *testing.T) {
	k := simkernel.New(1)
	reg := workload.NewRegistry()
	reg.Register("half", workload.FlatTrace{Fraction: 0.5})
	cfg := DefaultConfig()
	cfg.Traces = reg
	n := NewNode(k, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, cfg)

	spec := vm("v1", 4, 4096)
	spec.TraceID = "half"
	n.StartVM(spec)
	if got := n.Reserved(); got != spec.Requested {
		t.Fatalf("reserved: %v", got)
	}
	// Booting VMs consume no measured usage.
	if got := n.Usage(); !got.Zero() {
		t.Fatalf("usage while booting: %v", got)
	}
	k.Run(5 * time.Second)
	got := n.Usage()
	if math.Abs(got.CPU-2) > 1e-9 || math.Abs(got.Memory-2048) > 1e-9 {
		t.Fatalf("usage at 50%%: %v", got)
	}
}

func TestUsageClampedAtCapacity(t *testing.T) {
	k := simkernel.New(1)
	reg := workload.NewRegistry()
	reg.Register("over", workload.FlatTrace{Fraction: 1})
	cfg := DefaultConfig()
	cfg.Traces = reg
	n := NewNode(k, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, cfg)
	for i, id := range []string{"a", "b", "c", "d"} {
		s := vm(id, 2, 2048)
		s.TraceID = "over"
		if err := n.StartVM(s); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	k.Run(5 * time.Second)
	if got := n.Usage(); got.CPU > 8+1e-9 {
		t.Fatalf("usage exceeds capacity: %v", got)
	}
}

func TestMigration(t *testing.T) {
	k := simkernel.New(1)
	src, dst := testNode(k), NewNode(k, types.NodeSpec{ID: "n2", Capacity: types.RV(8, 16384, 1000, 1000)}, DefaultConfig())
	spec := vm("v1", 2, 2000) // 2000 MB at 1000 MB/s = 2s transfer
	src.StartVM(spec)
	k.Run(5 * time.Second)
	var result error
	set := false
	if err := src.MigrateTo("v1", dst, func(err error) { result, set = err, true }); err != nil {
		t.Fatal(err)
	}
	// During migration: source still runs it (pre-copy), destination holds
	// a reservation.
	if got := src.VMs()[0].State; got != types.VMMigrating {
		t.Fatalf("source state: %v", got)
	}
	if got := dst.Reserved(); got != spec.Requested {
		t.Fatalf("destination reservation: %v", got)
	}
	k.Run(5*time.Second + src.MigrationDuration(spec) + time.Second)
	if !set || result != nil {
		t.Fatalf("migration outcome: set=%v err=%v", set, result)
	}
	if src.HasVM("v1") || !dst.HasVM("v1") {
		t.Fatalf("placement after migration: src=%v dst=%v", src.HasVM("v1"), dst.HasVM("v1"))
	}
	if got := dst.VMs()[0].State; got != types.VMRunning {
		t.Fatalf("destination state: %v", got)
	}
	_, _, migs := src.Counters()
	if migs != 1 {
		t.Fatalf("migration counter: %d", migs)
	}
}

func TestMigrationErrors(t *testing.T) {
	k := simkernel.New(1)
	src, dst := testNode(k), NewNode(k, types.NodeSpec{ID: "n2", Capacity: types.RV(2, 2048, 100, 100)}, DefaultConfig())
	src.StartVM(vm("v1", 2, 2048))
	if err := src.MigrateTo("ghost", dst, nil); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown: %v", err)
	}
	// Not running yet (still booting).
	if err := src.MigrateTo("v1", dst, nil); err == nil {
		t.Fatal("migrating a booting VM should fail")
	}
	k.Run(5 * time.Second)
	if err := src.MigrateTo("v1", src, nil); err == nil {
		t.Fatal("self-migration should fail")
	}
	if err := src.MigrateTo("v1", nil, nil); err == nil {
		t.Fatal("nil destination should fail")
	}
	// Destination too small.
	src.StartVM(vm("v2", 4, 4096))
	k.Run(10 * time.Second)
	if err := src.MigrateTo("v2", dst, nil); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("small destination: %v", err)
	}
	// Concurrent second migration of the same VM.
	if err := src.MigrateTo("v1", dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := src.MigrateTo("v1", dst, nil); !errors.Is(err, ErrMigrationBusy) {
		t.Fatalf("busy: %v", err)
	}
}

func TestMigrationAbortOnDestinationFailure(t *testing.T) {
	k := simkernel.New(1)
	src, dst := testNode(k), NewNode(k, types.NodeSpec{ID: "n2", Capacity: types.RV(8, 16384, 1000, 1000)}, DefaultConfig())
	src.StartVM(vm("v1", 2, 2000))
	k.Run(5 * time.Second)
	var result error
	set := false
	src.MigrateTo("v1", dst, func(err error) { result, set = err, true })
	dst.Fail() // destination dies mid-transfer
	k.Run(20 * time.Second)
	if !set || result == nil {
		t.Fatalf("expected abort error, got set=%v err=%v", set, result)
	}
	if !src.HasVM("v1") {
		t.Fatal("VM lost from source on aborted migration")
	}
	// VM is runnable again (migrating flag cleared).
	if got := src.VMs()[0]; got.State != types.VMMigrating && got.State != types.VMRunning {
		t.Fatalf("source VM state after abort: %v", got.State)
	}
}

func TestSuspendWakeCycle(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	var transitions []types.PowerState
	n.OnPowerChange(func(_ types.NodeID, st types.PowerState) { transitions = append(transitions, st) })
	if err := n.Suspend(); err != nil {
		t.Fatal(err)
	}
	if n.Power() != types.PowerSuspending {
		t.Fatalf("power: %v", n.Power())
	}
	k.Run(time.Minute)
	if n.Power() != types.PowerSuspended {
		t.Fatalf("power after latency: %v", n.Power())
	}
	gen := n.Generation()
	if err := n.Wake(); err != nil {
		t.Fatal(err)
	}
	k.Run(2 * time.Minute)
	if n.Power() != types.PowerOn {
		t.Fatalf("power after wake: %v", n.Power())
	}
	if n.Generation() != gen+1 {
		t.Fatalf("generation not bumped: %d -> %d", gen, n.Generation())
	}
	want := []types.PowerState{types.PowerSuspending, types.PowerSuspended, types.PowerWaking, types.PowerOn}
	if len(transitions) != len(want) {
		t.Fatalf("transitions: %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions: %v", transitions)
		}
	}
}

func TestSuspendRefusedWithVMs(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	n.StartVM(vm("v1", 1, 1024))
	if err := n.Suspend(); !errors.Is(err, ErrNotSuspendable) {
		t.Fatalf("suspend with VMs: %v", err)
	}
}

func TestInvalidPowerTransitions(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	if err := n.Wake(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("wake while on: %v", err)
	}
	if err := n.Boot(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("boot while on: %v", err)
	}
	n.Suspend()
	if err := n.Suspend(); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double suspend: %v", err)
	}
}

func TestFailDestroysVMs(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	n.StartVM(vm("v1", 1, 1024))
	n.StartVM(vm("v2", 1, 1024))
	k.Run(5 * time.Second)
	n.Fail()
	if n.Power() != types.PowerFailed {
		t.Fatalf("power: %v", n.Power())
	}
	if len(n.Status().VMs) != 0 {
		t.Fatal("VMs survived crash")
	}
	// Repair: boot brings it back empty with a new generation.
	gen := n.Generation()
	if err := n.Boot(); err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Minute)
	if n.Power() != types.PowerOn || n.Generation() != gen+1 {
		t.Fatalf("after boot: %v gen %d->%d", n.Power(), gen, n.Generation())
	}
}

func TestEnergyAccounting(t *testing.T) {
	k := simkernel.New(1)
	cfg := DefaultConfig()
	n := NewNode(k, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, cfg)
	// 100s idle at IdleWatts.
	k.Run(100 * time.Second)
	n.MeterSample()
	idle := n.EnergyJoules()
	want := cfg.Power.IdleWatts * 100
	if math.Abs(idle-want) > 1 {
		t.Fatalf("idle energy: %v want %v", idle, want)
	}
	// Suspend: after the transition completes, draw is SuspendWatts.
	n.Suspend()
	k.Run(100*time.Second + cfg.Power.SuspendLatency)
	n.MeterSample()
	k.Run(200*time.Second + cfg.Power.SuspendLatency)
	n.MeterSample()
	total := n.EnergyJoules()
	suspended := total - idle - cfg.Power.TransitionWatts*cfg.Power.SuspendLatency.Seconds()
	wantSusp := cfg.Power.SuspendWatts * 100
	if math.Abs(suspended-wantSusp) > 1 {
		t.Fatalf("suspended energy: %v want %v", suspended, wantSusp)
	}
}

func TestSuspendedDrawsLessThanIdle(t *testing.T) {
	k := simkernel.New(1)
	a := testNode(k)
	b := NewNode(k, types.NodeSpec{ID: "n2", Capacity: types.RV(8, 16384, 1000, 1000)}, DefaultConfig())
	b.Suspend()
	k.Run(time.Hour)
	a.MeterSample()
	b.MeterSample()
	if b.EnergyJoules() >= a.EnergyJoules() {
		t.Fatalf("suspended node drew %v >= idle node %v", b.EnergyJoules(), a.EnergyJoules())
	}
}

func TestMigrationDurationScalesWithMemory(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	small := n.MigrationDuration(vm("a", 1, 1000))
	big := n.MigrationDuration(vm("b", 1, 4000))
	if small != time.Second || big != 4*time.Second {
		t.Fatalf("durations: %v %v", small, big)
	}
}

func TestGenerationFencesStaleBootTimer(t *testing.T) {
	k := simkernel.New(1)
	n := testNode(k)
	n.StartVM(vm("v1", 1, 1024))
	n.Fail() // destroys VM, cancels timers
	n.Boot()
	k.Run(10 * time.Minute)
	if n.HasVM("v1") {
		t.Fatal("stale VM after reboot")
	}
}

// TestSnapshotUnderChurn: while other goroutines start and stop VMs, every
// Snapshot lists the same VMs in its status and its statuses, in the same
// order, with the status's reservation summing exactly those VMs. Two calls,
// Status then VMs, can see different VM sets. Run it under -race.
func TestSnapshotUnderChurn(t *testing.T) {
	k := simkernel.New(1) // never run: boot timers stay pending
	n := testNode(k)
	const workers, rounds = 2, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%d", w, i%8)
				if n.StartVM(vm(id, 0.25, 256)) != nil {
					_ = n.StopVM(types.VMID(id))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			if snaps == 0 {
				t.Fatal("no snapshot taken during the churn")
			}
			return
		default:
		}
		st, vms := n.Snapshot()
		if len(st.VMs) != len(vms) {
			t.Fatalf("status lists %d VMs, statuses %d", len(st.VMs), len(vms))
		}
		var reserved types.ResourceVector
		for i, v := range vms {
			if st.VMs[i] != v.Spec.ID {
				t.Fatalf("position %d: status lists %q, statuses %q", i, st.VMs[i], v.Spec.ID)
			}
			reserved = reserved.Add(v.Spec.Requested)
		}
		if reserved != st.Reserved {
			t.Fatalf("reserved %+v, the listed VMs sum to %+v", st.Reserved, reserved)
		}
		if st.Idle != (len(vms) == 0) {
			t.Fatalf("idle %v with %d VMs", st.Idle, len(vms))
		}
	}
}

// TestSnapshotMatchesStatusAndVMs: on a quiet node, Snapshot is Status and VMs
// taken together, field for field.
func TestSnapshotMatchesStatusAndVMs(t *testing.T) {
	k := simkernel.New(1)
	reg := workload.NewRegistry()
	reg.Register("half", workload.FlatTrace{Fraction: 0.5})
	reg.Register("quarter", workload.FlatTrace{Fraction: 0.25})
	cfg := DefaultConfig()
	cfg.Traces = reg // binary fractions: usage sums are exact in any order
	n := NewNode(k, types.NodeSpec{ID: "n1", Capacity: types.RV(8, 16384, 1000, 1000)}, cfg)
	st, vms := n.Snapshot()
	if want := n.Status(); st.VMs != nil || !st.Idle || !reflect.DeepEqual(st, want) {
		t.Fatalf("empty node: snapshot %+v, status %+v", st, want)
	}
	if len(vms) != 0 {
		t.Fatalf("empty node: %d VM statuses", len(vms))
	}
	for i := 0; i < 6; i++ {
		spec := vm(fmt.Sprintf("v%d", i), 1, 1024)
		spec.TraceID = []string{"half", "quarter"}[i%2]
		if err := n.StartVM(spec); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(5 * time.Second) // booted
	if err := n.StartVM(vm("booting", 1, 1024)); err != nil {
		t.Fatal(err)
	}
	st, vms = n.Snapshot()
	want := n.Status()
	byID := map[types.VMID]types.VMStatus{}
	for _, v := range n.VMs() {
		byID[v.Spec.ID] = v
	}
	if st.Used != want.Used || st.Reserved != want.Reserved || st.Idle || len(st.VMs) != 7 {
		t.Fatalf("snapshot %+v, status %+v", st, want)
	}
	for i, v := range vms {
		if st.VMs[i] != v.Spec.ID || byID[v.Spec.ID] != v {
			t.Fatalf("VM %d: snapshot %+v, VMs() %+v", i, v, byID[v.Spec.ID])
		}
	}
}
