// Package election implements the leader-election recipe the Snooze Group
// Managers run to designate the Group Leader (Section II-D): "when a GM first
// attempts to join the system, a leader election algorithm is triggered ...
// built on top of the Apache ZooKeeper highly available and reliable
// coordination system. If a leader exists, the GM joins it and starts sending
// GM heartbeats. Otherwise, it becomes the new GL".
//
// The recipe is the standard ZooKeeper ephemeral-sequential election: each
// candidate creates an ephemeral sequence znode under the election path; the
// candidate owning the lowest sequence is the leader; every other candidate
// watches only its immediate predecessor, so a leader crash wakes exactly one
// candidate (no herd effect) and GM crashes that are not the leader cause no
// election activity at all.
package election

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"snooze/internal/coord"
	"snooze/internal/simkernel"
)

// State is a candidate's view of the election.
type State int

// Election states.
const (
	// StateIdle means the candidate has not joined (or has resigned).
	StateIdle State = iota
	// StateFollower means another candidate currently leads.
	StateFollower
	// StateLeader means this candidate is the leader.
	StateLeader
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateFollower:
		return "follower"
	case StateLeader:
		return "leader"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// znodePrefix names the candidates' sequential election znodes.
const znodePrefix = "n-"

// Listener is notified on every state change. leaderID is the identity
// payload of the current leader ("" while unknown).
type Listener func(st State, leaderID string)

// Candidate participates in one election.
type Candidate struct {
	svc      *coord.Service
	rt       simkernel.Runtime
	base     string
	id       string
	ttl      time.Duration
	listener Listener

	mu       sync.Mutex
	sess     *coord.Session
	ownPath  string // full path of our election znode
	state    State
	leaderID string
	pinger   *simkernel.Ticker
	resigned bool
}

// Config parameterizes NewCandidate.
type Config struct {
	// Base is the election root path, e.g. "/snooze/election".
	Base string
	// ID is the candidate's identity payload (the GM's address).
	ID string
	// SessionTTL bounds failure-detection latency: a crashed candidate's
	// znode disappears after at most this long.
	SessionTTL time.Duration
	// Listener receives state transitions (may be nil).
	Listener Listener
}

// NewCandidate creates a candidate; call Join to enter the election.
func NewCandidate(svc *coord.Service, rt simkernel.Runtime, cfg Config) *Candidate {
	return &Candidate{
		svc:      svc,
		rt:       rt,
		base:     strings.TrimSuffix(cfg.Base, "/"),
		id:       cfg.ID,
		ttl:      cfg.SessionTTL,
		listener: cfg.Listener,
	}
}

// State returns the candidate's current view.
func (c *Candidate) State() (State, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state, c.leaderID
}

// ID returns the candidate's identity payload.
func (c *Candidate) ID() string { return c.id }

// Epoch returns the sequence number of the candidate's election znode plus 1,
// or 0 while it has none. While the candidate leads, this is the leadership
// epoch: every later leader's znode sorts after this one, so epochs grow
// across successive leaders.
func (c *Candidate) Epoch() uint64 {
	c.mu.Lock()
	own := path.Base(c.ownPath)
	c.mu.Unlock()
	seq, err := strconv.ParseUint(strings.TrimPrefix(own, znodePrefix), 10, 64)
	if err != nil {
		return 0
	}
	return seq + 1
}

// Join enters the election: opens a session, creates the ephemeral sequence
// node and evaluates leadership. Safe to call again after Resign or session
// expiry.
func (c *Candidate) Join() error {
	c.mu.Lock()
	if c.sess != nil && !c.sess.Expired() {
		c.mu.Unlock()
		return errors.New("election: already joined")
	}
	c.resigned = false
	if err := c.svc.EnsurePath(c.base); err != nil {
		c.mu.Unlock()
		return err
	}
	sess := c.svc.NewSession(c.ttl, func() { c.onSessionExpired() })
	c.sess = sess
	own, err := c.svc.Create(sess, c.base+"/"+znodePrefix, []byte(c.id), coord.FlagEphemeral|coord.FlagSequential)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.ownPath = own
	// Keep the session alive at TTL/3, the usual ZK client cadence.
	if c.ttl > 0 {
		c.pinger = simkernel.NewTicker(c.rt, c.ttl/3, func() { _ = sess.Ping() })
		c.pinger.Start()
	}
	c.mu.Unlock()
	c.evaluate()
	return nil
}

// Abandon simulates a crash: the candidate stops keeping its session alive
// WITHOUT closing it, so peers only notice when the session TTL expires —
// exactly the failure-detection path the paper relies on ("when a GL fails,
// its heartbeats are lost and the leader election procedure is restarted").
func (c *Candidate) Abandon() {
	c.mu.Lock()
	c.resigned = true
	if c.pinger != nil {
		c.pinger.Stop()
		c.pinger = nil
	}
	c.mu.Unlock()
}

// Resign leaves the election, releasing leadership if held.
func (c *Candidate) Resign() {
	c.mu.Lock()
	c.resigned = true
	sess := c.sess
	if c.pinger != nil {
		c.pinger.Stop()
		c.pinger = nil
	}
	c.mu.Unlock()
	if sess != nil {
		sess.Close() // triggers onSessionExpired → StateIdle
	}
}

func (c *Candidate) onSessionExpired() {
	c.mu.Lock()
	c.sess = nil
	c.ownPath = ""
	if c.pinger != nil {
		c.pinger.Stop()
		c.pinger = nil
	}
	changed := c.state != StateIdle
	c.state = StateIdle
	c.leaderID = ""
	l := c.listener
	c.mu.Unlock()
	if changed && l != nil {
		l(StateIdle, "")
	}
}

// evaluate inspects the candidate list and either assumes leadership or
// watches the immediate predecessor.
func (c *Candidate) evaluate() {
	c.mu.Lock()
	if c.resigned || c.sess == nil || c.sess.Expired() {
		c.mu.Unlock()
		return
	}
	own := path.Base(c.ownPath)
	sess := c.sess
	c.mu.Unlock()

	kids, err := c.svc.Children(sess, c.base, nil)
	if err != nil {
		return
	}
	sort.Strings(kids)
	idx := -1
	for i, k := range kids {
		if k == own {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Our node is gone (session raced expiry); the expiry callback
		// handles the transition.
		return
	}
	if idx == 0 {
		c.transition(StateLeader, c.id)
		return
	}
	// Follower: learn the leader's ID, watch our immediate predecessor for
	// succession and the head for leader-identity changes. Predecessor
	// watching keeps non-leader crashes herd-free; the head watch only
	// fires on actual leader turnover, which is inherently global.
	leaderData, err := c.svc.Get(c.base + "/" + kids[0])
	leaderID := ""
	if err == nil {
		leaderID = string(leaderData)
	}
	pred := c.base + "/" + kids[idx-1]
	exists, err := c.svc.Exists(sess, pred, func(coord.Event) { c.evaluate() })
	if err == nil && !exists {
		// Predecessor vanished between listing and watching: re-evaluate.
		c.rt.After(0, c.evaluate)
		return
	}
	if idx > 1 { // for idx==1 the predecessor IS the head
		head := c.base + "/" + kids[0]
		exists, err = c.svc.Exists(sess, head, func(coord.Event) { c.evaluate() })
		if err == nil && !exists {
			c.rt.After(0, c.evaluate)
			return
		}
	}
	c.transition(StateFollower, leaderID)
}

func (c *Candidate) transition(st State, leaderID string) {
	c.mu.Lock()
	if c.state == st && c.leaderID == leaderID {
		c.mu.Unlock()
		return
	}
	c.state = st
	c.leaderID = leaderID
	l := c.listener
	c.mu.Unlock()
	if l != nil {
		l(st, leaderID)
	}
}

// ---------------------------------------------------------------------------
// Observers (Entry Points)
// ---------------------------------------------------------------------------

// CurrentLeader returns the ID payload of the current leader of the election
// at base, or "" if no candidate is enrolled. Entry Points use this to
// answer client GL-discovery queries.
func CurrentLeader(svc *coord.Service, base string) string {
	kids, err := svc.Children(nil, base, nil)
	if err != nil || len(kids) == 0 {
		return ""
	}
	sort.Strings(kids)
	data, err := svc.Get(strings.TrimSuffix(base, "/") + "/" + kids[0])
	if err != nil {
		return ""
	}
	return string(data)
}
