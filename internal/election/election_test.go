package election

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"snooze/internal/coord"
	"snooze/internal/simkernel"
)

const ttl = 100 * time.Millisecond

type harness struct {
	k   *simkernel.Kernel
	svc *coord.Service
}

func newHarness() *harness {
	k := simkernel.New(1)
	return &harness{k: k, svc: coord.NewService(k)}
}

func (h *harness) candidate(id string, l Listener) *Candidate {
	return NewCandidate(h.svc, h.k, Config{Base: "/el", ID: id, SessionTTL: ttl, Listener: l})
}

func (h *harness) settle() { h.k.Run(h.k.Now() + time.Second) }

func TestFirstCandidateBecomesLeader(t *testing.T) {
	h := newHarness()
	c := h.candidate("gm1", nil)
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	h.settle()
	st, leader := c.State()
	if st != StateLeader || leader != "gm1" {
		t.Fatalf("state=%v leader=%q", st, leader)
	}
}

func TestSecondCandidateFollows(t *testing.T) {
	h := newHarness()
	c1, c2 := h.candidate("gm1", nil), h.candidate("gm2", nil)
	c1.Join()
	h.settle()
	c2.Join()
	h.settle()
	if st, _ := c1.State(); st != StateLeader {
		t.Fatalf("c1 state=%v", st)
	}
	st, leader := c2.State()
	if st != StateFollower || leader != "gm1" {
		t.Fatalf("c2 state=%v leader=%q", st, leader)
	}
}

func TestFailoverToNextCandidate(t *testing.T) {
	h := newHarness()
	var events []string
	var mu sync.Mutex
	listen := func(name string) Listener {
		return func(st State, leader string) {
			mu.Lock()
			events = append(events, fmt.Sprintf("%s:%v:%s", name, st, leader))
			mu.Unlock()
		}
	}
	c1, c2, c3 := h.candidate("gm1", listen("c1")), h.candidate("gm2", listen("c2")), h.candidate("gm3", listen("c3"))
	c1.Join()
	h.settle()
	c2.Join()
	h.settle()
	c3.Join()
	h.settle()
	// Crash the leader: resign closes the session like a crash would.
	c1.Resign()
	h.settle()
	if st, _ := c2.State(); st != StateLeader {
		t.Fatalf("c2 should lead, state=%v", st)
	}
	st, leader := c3.State()
	if st != StateFollower || leader != "gm2" {
		t.Fatalf("c3 state=%v leader=%q", st, leader)
	}
	if st, _ := c1.State(); st != StateIdle {
		t.Fatalf("c1 state=%v", st)
	}
}

func TestCrashByMissedPings(t *testing.T) {
	h := newHarness()
	c1, c2 := h.candidate("gm1", nil), h.candidate("gm2", nil)
	c1.Join()
	h.settle()
	c2.Join()
	h.settle()
	// Simulate a GL crash: stop c1's pinger without a graceful close.
	c1.mu.Lock()
	c1.pinger.Stop()
	c1.mu.Unlock()
	h.k.Run(h.k.Now() + 10*ttl)
	if st, _ := c2.State(); st != StateLeader {
		t.Fatalf("c2 should take over after leader session expiry, state=%v", st)
	}
	if st, _ := c1.State(); st != StateIdle {
		t.Fatalf("crashed leader state=%v", st)
	}
}

func TestMiddleFollowerCrashDoesNotChangeLeader(t *testing.T) {
	h := newHarness()
	c1, c2, c3 := h.candidate("gm1", nil), h.candidate("gm2", nil), h.candidate("gm3", nil)
	for _, c := range []*Candidate{c1, c2, c3} {
		c.Join()
		h.settle()
	}
	c2.Resign()
	h.settle()
	if st, _ := c1.State(); st != StateLeader {
		t.Fatalf("c1 state=%v", st)
	}
	st, leader := c3.State()
	if st != StateFollower || leader != "gm1" {
		t.Fatalf("c3 state=%v leader=%q", st, leader)
	}
}

func TestRejoinAfterResign(t *testing.T) {
	h := newHarness()
	c1, c2 := h.candidate("gm1", nil), h.candidate("gm2", nil)
	c1.Join()
	h.settle()
	c2.Join()
	h.settle()
	c1.Resign()
	h.settle()
	// c1 rejoins as a follower of the new leader c2.
	if err := c1.Join(); err != nil {
		t.Fatal(err)
	}
	h.settle()
	st, leader := c1.State()
	if st != StateFollower || leader != "gm2" {
		t.Fatalf("rejoined c1 state=%v leader=%q", st, leader)
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	h := newHarness()
	c := h.candidate("gm1", nil)
	if err := c.Join(); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(); err == nil {
		t.Fatal("second Join should fail while session alive")
	}
}

func TestExactlyOneLeaderProperty(t *testing.T) {
	h := newHarness()
	const n = 10
	cands := make([]*Candidate, n)
	for i := range cands {
		cands[i] = h.candidate(fmt.Sprintf("gm%02d", i), nil)
		cands[i].Join()
		h.k.Run(h.k.Now() + 10*time.Millisecond)
	}
	h.settle()
	countLeaders := func() (leaders int, ids []string) {
		for _, c := range cands {
			st, l := c.State()
			if st == StateLeader {
				leaders++
			}
			if st != StateIdle {
				ids = append(ids, l)
			}
		}
		return
	}
	// Crash leaders one after another; after every settle there must be
	// exactly one leader among the living and all followers must agree.
	for round := 0; round < n-1; round++ {
		leaders, ids := countLeaders()
		if leaders != 1 {
			t.Fatalf("round %d: %d leaders", round, leaders)
		}
		for _, id := range ids {
			if id != ids[0] {
				t.Fatalf("round %d: leader disagreement %v", round, ids)
			}
		}
		// Kill the current leader.
		for _, c := range cands {
			if st, _ := c.State(); st == StateLeader {
				c.Resign()
				break
			}
		}
		h.settle()
	}
}

func TestCurrentLeaderObserver(t *testing.T) {
	h := newHarness()
	if got := CurrentLeader(h.svc, "/el"); got != "" {
		t.Fatalf("empty election leader: %q", got)
	}
	c1 := h.candidate("gm1", nil)
	c1.Join()
	h.settle()
	if got := CurrentLeader(h.svc, "/el"); got != "gm1" {
		t.Fatalf("leader: %q", got)
	}
	c2 := h.candidate("gm2", nil)
	c2.Join()
	h.settle()
	c1.Resign()
	h.settle()
	if got := CurrentLeader(h.svc, "/el"); got != "gm2" {
		t.Fatalf("leader after failover: %q", got)
	}
}

func TestListenerSequence(t *testing.T) {
	h := newHarness()
	var seq []State
	c := h.candidate("gm1", func(st State, _ string) { seq = append(seq, st) })
	c.Join()
	h.settle()
	c.Resign()
	h.settle()
	if len(seq) != 2 || seq[0] != StateLeader || seq[1] != StateIdle {
		t.Fatalf("listener sequence: %v", seq)
	}
}

func TestStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateFollower.String() != "follower" || StateLeader.String() != "leader" {
		t.Fatal("state strings")
	}
}

// TestEpochGrowsAcrossLeaders: a candidate's epoch is 0 until it joins, and
// each successive leader's, a rejoined earlier leader's included, exceeds
// every earlier one's.
func TestEpochGrowsAcrossLeaders(t *testing.T) {
	h := newHarness()
	c1, c2 := h.candidate("gm1", nil), h.candidate("gm2", nil)
	if e := c1.Epoch(); e != 0 {
		t.Fatalf("epoch before joining: %d", e)
	}
	c1.Join()
	c2.Join()
	h.settle()
	first := c1.Epoch()
	if st, _ := c1.State(); st != StateLeader || first == 0 {
		t.Fatalf("c1 state=%v epoch=%d", st, first)
	}
	c1.Resign()
	h.settle()
	second := c2.Epoch()
	if st, _ := c2.State(); st != StateLeader || second <= first {
		t.Fatalf("c2 state=%v epoch=%d after leader epoch %d", st, second, first)
	}
	if e := c1.Epoch(); e != 0 {
		t.Fatalf("epoch after resigning: %d", e)
	}
	c1.Join()
	c2.Resign()
	h.settle()
	if st, _ := c1.State(); st != StateLeader || c1.Epoch() <= second {
		t.Fatalf("rejoined c1 state=%v epoch=%d after leader epoch %d", st, c1.Epoch(), second)
	}
}
