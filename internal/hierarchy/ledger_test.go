package hierarchy

import (
	"fmt"
	"testing"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/types"
)

// checkLedger recounts the per-LC counts and the pending count from the
// ledger entries of m's GM stint and fails if setLocked's running counts
// disagree. A manager with no GM stint (crashed, or the GL) has no ledger.
func checkLedger(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gm == nil {
		return
	}
	type counts struct{ hosted, busy int }
	want := make(map[*lcRecord]*counts)
	at := func(lc *lcRecord) *counts {
		if want[lc] == nil {
			want[lc] = &counts{}
		}
		return want[lc]
	}
	waiting := 0
	for id, e := range m.gm.ledger {
		if e.vm.Spec.ID != id {
			t.Fatalf("ledger key %s holds the entry of %s", id, e.vm.Spec.ID)
		}
		switch e.state {
		case vmPending:
			waiting++
		case vmMigrating:
			at(e.node).busy++
			at(e.dst).busy++
			fallthrough
		case vmStarting, vmRunning:
			at(e.node).hosted++
		}
	}
	if waiting != m.gm.waiting {
		t.Fatalf("%d pending entries, counted %d", waiting, m.gm.waiting)
	}
	for _, lc := range m.gm.lcs {
		for i, e := range lc.hosted {
			if e.node != lc || e.slot != i || m.gm.gm.ledger[e.vm.Spec.ID] != e {
				t.Fatalf("LC %s hosts %s at slot %d, which the ledger does not", lc.id, e.vm.Spec.ID, i)
			}
		}
		got, w := counts{len(lc.hosted), lc.busy}, at(lc)
		if got != *w {
			t.Fatalf("LC %s: counts %+v, ledger says %+v", lc.id, got, *w)
		}
		delete(want, lc)
	}
	for lc := range want {
		t.Fatalf("ledger entries reference LC %s, which the GM no longer manages", lc.id)
	}
}

// TestDuplicatePlaceJoins sends one PlaceRequest to a GM twice at one
// instant, as a bus that duplicates it does. The second copy must join the
// first's outcome: both replies name the same node, and the hypervisor starts
// the VM once — also when energy management first parks the VM in the
// pending queue until the suspended LC wakes. A third copy sent once the VM
// runs is answered at once, without a StartVM round trip.
func TestDuplicatePlaceJoins(t *testing.T) {
	for _, energy := range []bool{false, true} {
		t.Run(fmt.Sprintf("energy=%v", energy), func(t *testing.T) {
			r := newRig(61)
			r.manager("m0") // becomes GL
			r.settle(5 * time.Second)
			cfg := DefaultManagerConfig("m1", "mgr:m1")
			cfg.EnergyEnabled = energy
			cfg.IdleThreshold = 10 * time.Second
			gm := NewManager(r.k, r.bus, r.svc, cfg)
			if err := gm.Start(); err != nil {
				t.Fatal(err)
			}
			r.lc("n1")
			r.settle(time.Minute)
			if _, asleep := gm.LCCount(); gm.Role() != RoleGM || (asleep == 1) != energy {
				t.Fatalf("fixture: m1 is %v with %d LCs asleep", gm.Role(), asleep)
			}

			spec := types.VMSpec{ID: "dup", Requested: types.RV(1, 1024, 10, 10)}
			var replies []types.NodeID
			var answered time.Duration
			send := func() {
				r.bus.Call("test", gm.Addr(), protocol.KindPlace, protocol.PlaceRequest{VMs: []types.VMSpec{spec}}, 2*time.Minute,
					func(reply any, err error) {
						resp, ok := reply.(protocol.PlaceResponse)
						if err != nil || !ok || len(resp.Placed) != 1 {
							t.Errorf("place: %+v %v", reply, err)
							return
						}
						replies = append(replies, resp.Placed[spec.ID])
						answered = r.k.Now()
					})
			}
			send()
			send()
			r.settle(time.Millisecond) // both copies handled, no StartVM answered yet
			gm.mu.Lock()
			e := gm.gm.ledger[spec.ID]
			want := vmStarting
			if energy {
				want = vmPending
			}
			if e == nil || e.state != want || len(e.waiters.more) != 1 {
				t.Fatalf("after two copies: entry %+v, want state %d with a joined waiter", e, want)
			}
			gm.mu.Unlock()
			r.settle(time.Minute)
			checkLedger(t, gm)
			if len(replies) != 2 || replies[0] == "" || replies[0] != replies[1] {
				t.Fatalf("replies %v, want the same node twice", replies)
			}
			node := r.nodes[replies[0]]
			if started, _, _ := node.Counters(); started != 1 {
				t.Fatalf("%s started the VM %d times", node.ID(), started)
			}

			sent := r.k.Now()
			send()
			r.settle(time.Second)
			if len(replies) != 3 || replies[2] != replies[0] {
				t.Fatalf("third copy: replies %v", replies)
			}
			// One hop to the GM and one back: no StartVM was issued.
			if took := answered - sent; took > 2*time.Millisecond {
				t.Fatalf("third copy answered after %v", took)
			}
			if started, _, _ := node.Counters(); started != 1 {
				t.Fatalf("%s started the VM %d times", node.ID(), started)
			}
			checkLedger(t, gm)
		})
	}
}
