package hierarchy

import (
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/types"
)

// stintState is what a GM stint holds, reduced to comparable counts.
type stintState struct {
	lcs, ledger, shed, waiting int
	seq                        uint64
	joined                     bool
	lastRollup                 time.Duration
	glAddr                     string
}

func stateOf(m *Manager, g *gmStint) stintState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return stintState{len(g.lcs), len(g.ledger), len(g.shedLCs), g.waiting, g.seq, g.joined, g.lastRollup, string(g.glAddr)}
}

// currentGM returns m's GM stint, nil when it has none.
func currentGM(m *Manager) *gmStint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gm
}

// TestStintGMToGLToGM follows one manager through a GM stint, a GL stint and,
// after a crash and restart, a second GM stint. At the promotion the first
// stint has LCs, one placement pending a wake and one StartVM in flight: the
// pending one is answered unplaced, and the StartVM reply, which reaches the
// closed stint, still answers its request. The second stint starts with no
// LCs, no ledger entries and no shed tombstones, and nothing the first stint
// left behind — its tickers, its energy deadline, its join and drain
// callbacks — changes it.
func TestStintGMToGLToGM(t *testing.T) {
	r := newRig(71)
	gl := r.manager("m0")
	r.settle(5 * time.Second)
	cfg := DefaultManagerConfig("m1", "mgr:m1")
	cfg.EnergyEnabled = true
	cfg.IdleThreshold = 30 * time.Second
	m := NewManager(r.k, r.bus, r.svc, cfg)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	r.settle(5 * time.Second)
	r.manager("m2")
	r.settle(5 * time.Second)
	for _, id := range []string{"n1", "n2", "n3"} {
		r.lc(id)
		r.settle(5 * time.Second)
	}
	// One of m1's LCs hosts a VM and stays awake; the other falls asleep.
	var awake, asleep types.NodeID
	for _, id := range []types.NodeID{"n1", "n2", "n3"} {
		g := currentGM(m)
		m.mu.Lock()
		_, mine := g.lcs[id]
		m.mu.Unlock()
		switch {
		case !mine:
		case awake == "":
			awake = id
			if err := r.nodes[id].StartVM(types.VMSpec{ID: "resident", Requested: types.RV(4, 4096, 10, 10)}); err != nil {
				t.Fatal(err)
			}
		default:
			asleep = id
		}
	}
	r.settle(time.Minute)
	if active, sleeping := m.LCCount(); m.Role() != RoleGM || active != 1 || sleeping != 1 || asleep == "" {
		t.Fatalf("fixture: m1 is %v with %d active and %d sleeping LCs", m.Role(), active, sleeping)
	}

	// "fits" starts on the awake LC; "wakes" fits nowhere awake and waits
	// for the sleeping LC.
	answers := map[types.VMID]types.NodeID{}
	for _, spec := range []types.VMSpec{
		{ID: "fits", Requested: types.RV(1, 1024, 10, 10)},
		{ID: "wakes", Requested: types.RV(7, 1024, 10, 10)},
	} {
		r.bus.Call("test", m.Addr(), protocol.KindPlace, protocol.PlaceRequest{VMs: []types.VMSpec{spec}}, time.Minute,
			func(reply any, err error) {
				resp, _ := reply.(protocol.PlaceResponse)
				if _, dup := answers[spec.ID]; dup || err != nil {
					t.Errorf("place %s: answered twice or failed: %v", spec.ID, err)
				}
				answers[spec.ID] = resp.Placed[spec.ID]
			})
	}
	r.settle(1500 * time.Microsecond) // both requests handled, no StartVM answered yet
	first := currentGM(m)
	m.mu.Lock()
	fits, wakes := first.ledger["fits"], first.ledger["wakes"]
	pending := first.waiting
	m.mu.Unlock()
	if fits == nil || fits.state != vmStarting || wakes == nil || wakes.state != vmPending || pending != 1 {
		t.Fatalf("fixture: fits %+v, wakes %+v, %d pending", fits, wakes, pending)
	}

	gl.Stop() // m1 is next in line: promoted at once, its StartVM in flight
	r.settle(100 * time.Microsecond)
	if m.Role() != RoleGL || currentGM(m) != nil {
		t.Fatalf("m1 is %v after the GL stopped", m.Role())
	}
	r.settle(time.Second)
	if len(answers) != 2 || answers["fits"] != awake || answers["wakes"] != "" {
		t.Fatalf("answers after the promotion: %v, want fits on %s, wakes unplaced", answers, awake)
	}
	m.Crash()
	for i := 0; m.Restart() != nil; i++ {
		if i == 60 {
			t.Fatal("restart still refused after 30 s")
		}
		r.settle(500 * time.Millisecond)
	}
	second := currentGM(m)
	if second == nil || second == first {
		t.Fatalf("m1 is %v after the restart, want a new GM stint", m.Role())
	}
	entry := stateOf(m, second)
	if entry.lcs != 0 || entry.ledger != 0 || entry.shed != 0 || entry.waiting != 0 {
		t.Fatalf("second stint starts with %+v, want it empty", entry)
	}

	// Whatever of the first stint still runs is a no-op.
	if first.lock() {
		m.mu.Unlock()
		t.Fatal("the first stint still locks as current")
	}
	for name, late := range map[string]func(){
		"heartbeat": first.heartbeatTick, "summary": first.summaryTick, "sweep": first.sweepTick,
		"energy": first.energy.fire, "join": first.joinGL, "drain": first.drainPending,
	} {
		late()
		if got := stateOf(m, second); got != entry {
			t.Fatalf("the first stint's %s changed the second: %+v, was %+v", name, got, entry)
		}
	}
	r.settle(2 * time.Minute)
	if currentGM(m) != second {
		t.Fatal("the second stint did not last")
	}
	checkLedger(t, m)
}

// TestStintLeaderChangeKeepsLedger: a new leader while the manager is a GM
// stays inside its stint. The GM follows the new GL and keeps its LCs and its
// ledger.
func TestStintLeaderChangeKeepsLedger(t *testing.T) {
	r := newRig(72)
	gl := r.manager("m0")
	r.settle(5 * time.Second)
	next := r.manager("m1") // the successor
	r.settle(5 * time.Second)
	m := r.manager("m2")
	r.settle(5 * time.Second)
	for _, id := range []string{"n1", "n2"} {
		r.lc(id)
		r.settle(5 * time.Second)
	}
	r.settle(20 * time.Second)
	spec := types.VMSpec{ID: "kept", Requested: types.RV(1, 1024, 10, 10)}
	var placed types.NodeID
	r.bus.Call("test", m.Addr(), protocol.KindPlace, protocol.PlaceRequest{VMs: []types.VMSpec{spec}}, time.Minute,
		func(reply any, err error) {
			resp, _ := reply.(protocol.PlaceResponse)
			placed = resp.Placed[spec.ID]
		})
	r.settle(10 * time.Second)
	g := currentGM(m)
	before := stateOf(m, g)
	if placed == "" || before.lcs == 0 || before.ledger != 1 || before.glAddr != string(gl.Addr()) {
		t.Fatalf("fixture: placed on %q, m2's stint %+v", placed, before)
	}

	gl.Stop()
	r.settle(time.Second)
	if next.Role() != RoleGL || currentGM(m) != g {
		t.Fatalf("after the leader change: m1 is %v, m2 changed stint", next.Role())
	}
	after := stateOf(m, g)
	if after.glAddr != string(next.Addr()) || after.lcs != before.lcs || after.ledger != 1 {
		t.Fatalf("after the leader change m2's stint is %+v, was %+v", after, before)
	}
	m.mu.Lock()
	e := g.ledger["kept"]
	m.mu.Unlock()
	if e == nil || e.state != vmRunning || e.node.id != placed {
		t.Fatalf("ledger entry of kept: %+v, want running on %s", e, placed)
	}
	checkLedger(t, m)
}
