package hierarchy

import (
	"sort"
	"strconv"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// This file implements GM state replication and failover recovery
// (self-healing extended from membership to telemetry state, Section II-E):
// GMs periodically push snapshots of their owned telemetry plus incremental
// journal segments to the GL, which archives them per GM. Two recovery paths
// share the archive:
//
//   - A manager (re)entering the GM role fetches its own archive during its
//     bootstrap phase (KindRecoveryFetch) — the restart/re-election case.
//   - When the GL's sweep declares a GM dead, it pushes the dead GM's
//     archive at the survivors (KindStateRestore); the orphaned LCs rejoin
//     those GMs, whose first scheduling decisions then run on restored
//     windowed statistics (Fresh capacity views) instead of waiting out the
//     freshness gate on an empty store.
//
// Restores merge: fresher local series win, owner stamps are only adopted
// where absent and journal imports are idempotent, so re-deliveries and
// shared-hub deployments (where a GM crash loses nothing) are no-ops.

// maxSyncEvents bounds the journal segment carried by one state-sync push
// and the events accumulated per archive; the journal's own ring bounds
// total retention anyway.
const maxSyncEvents = 4096

// defaultStateSyncPeriod is the automatic replication cadence on private
// hubs (StateSyncPeriod == 0).
const defaultStateSyncPeriod = 8 * time.Second

// stateSyncPeriod resolves ManagerConfig.StateSyncPeriod: an explicit value
// wins, 0 means automatic — replicate on a private hub (a crash there loses
// the hub), stay quiet on a shared one (the successor reads the same store,
// so replication would only burn snapshot copies).
func (m *Manager) stateSyncPeriod() time.Duration {
	if m.cfg.StateSyncPeriod != 0 {
		return m.cfg.StateSyncPeriod
	}
	if m.privateHub {
		return defaultStateSyncPeriod
	}
	return -1
}

// gmArchive is the GL's copy of one GM's replicated state.
type gmArchive struct {
	snapshot telemetry.HubSnapshot
	events   []telemetry.Event
	lastSeq  uint64 // highest event Seq accumulated
}

// syncHorizonFactor scales the view horizon into the history window a
// state-sync snapshot carries: twice the statistics window keeps a restored
// view's percentiles and demand estimates intact with margin for sync lag,
// while bounding the per-tick copy to a fraction of the raw ring.
const syncHorizonFactor = 2

// gmStateSyncTick pushes this GM's owned telemetry state to the GL: a
// horizon-bounded snapshot cut now, plus the journal events published since
// the previous push (the incremental segment the GL accumulates between
// snapshots). The snapshot is trimmed to the recent window capacity views
// consume (SnapshotSince) — replicating the full retention ladder every tick
// would cost far more than warm failover is worth.
func (m *Manager) gmStateSyncTick() {
	m.mu.Lock()
	if m.role != RoleGM || m.stopped || m.glAddr == "" {
		m.mu.Unlock()
		return
	}
	gl := m.glAddr
	since := m.lastSyncSeq
	m.mu.Unlock()

	now := m.rt.Now()
	from := now - syncHorizonFactor*m.cfg.ViewHorizon
	if from < 0 {
		from = 0
	}
	snap := m.tel.SnapshotSince(now, string(m.cfg.ID), from)
	events := m.tel.Journal().Replay(since+1, maxSyncEvents)
	m.mu.Lock()
	if snap.BaseSeq > m.lastSyncSeq {
		m.lastSyncSeq = snap.BaseSeq
	}
	m.mu.Unlock()
	m.mark("gm.state-syncs", 1)
	_ = m.bus.Send(m.cfg.Addr, gl, protocol.KindStateSync, protocol.StateSync{
		GM:       m.cfg.ID,
		Addr:     string(m.cfg.Addr),
		Snapshot: snap,
		SinceSeq: since,
		Events:   events,
	})
}

// glOnStateSync archives a GM's replication push: the latest snapshot
// replaces the previous one, the event segment is deduplicated by sequence
// and appended (bounded at maxSyncEvents, oldest dropped).
func (m *Manager) glOnStateSync(req *transport.Request) {
	sync, ok := req.Payload.(protocol.StateSync)
	if !ok || sync.GM == "" {
		return
	}
	m.mu.Lock()
	active := m.role == RoleGL && !m.stopped
	m.mu.Unlock()
	if !active {
		return
	}
	m.archMu.Lock()
	arch, ok := m.archives[sync.GM]
	if !ok {
		arch = &gmArchive{}
		m.archives[sync.GM] = arch
	}
	arch.snapshot = sync.Snapshot
	for _, ev := range sync.Events {
		if ev.Seq <= arch.lastSeq {
			continue
		}
		arch.events = append(arch.events, ev)
		arch.lastSeq = ev.Seq
	}
	if n := len(arch.events); n > maxSyncEvents {
		arch.events = append(arch.events[:0:0], arch.events[n-maxSyncEvents:]...)
	}
	m.archMu.Unlock()
	m.mark("gl.state-syncs", 1)
}

// glOnRecoveryFetch serves a GM's bootstrap request for its archived state.
func (m *Manager) glOnRecoveryFetch(req *transport.Request) {
	fetch, ok := req.Payload.(protocol.RecoveryFetchRequest)
	if !ok {
		req.RespondErr(errBadPayload)
		return
	}
	m.mu.Lock()
	active := m.role == RoleGL && !m.stopped
	m.mu.Unlock()
	if !active {
		req.Respond(protocol.RecoveryFetchResponse{})
		return
	}
	var resp protocol.RecoveryFetchResponse
	m.archMu.Lock()
	if arch, ok := m.archives[fetch.GM]; ok {
		resp = protocol.RecoveryFetchResponse{
			Found:    true,
			Snapshot: arch.snapshot,
			Events:   append([]telemetry.Event(nil), arch.events...),
		}
	}
	m.archMu.Unlock()
	if resp.Found {
		m.mark("gl.recovery-fetches", 1)
	}
	req.Respond(resp)
}

// glPushArchives hands the failed GMs' archived state to every surviving GM
// (called from the sweep after the failures were journaled). Each survivor
// merges the archive into its hub; on per-process hubs this is what keeps
// percentile gating alive across the handoff, because the orphaned LCs spread
// over several successors and the GL cannot know which one adopts which LC.
// The archive itself is retained for a later RecoveryFetch (GM restart).
func (m *Manager) glPushArchives(failed []types.GroupManagerID) {
	m.mu.Lock()
	if m.role != RoleGL || m.stopped {
		m.mu.Unlock()
		return
	}
	addrs := make([]transport.Address, 0, len(m.gms))
	for _, gm := range m.gms {
		addrs = append(addrs, gm.addr)
	}
	now := m.rt.Now()
	m.mu.Unlock()
	if len(addrs) == 0 {
		return
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, id := range failed {
		m.archMu.Lock()
		arch, ok := m.archives[id]
		var push protocol.StateRestore
		if ok {
			push = protocol.StateRestore{
				FailedGM:   id,
				Snapshot:   arch.snapshot,
				Events:     append([]telemetry.Event(nil), arch.events...),
				FailedAtNs: int64(now),
			}
		}
		m.archMu.Unlock()
		if !ok {
			continue
		}
		m.mark("gl.state-restores", 1)
		for _, addr := range addrs {
			_ = m.bus.Send(m.cfg.Addr, addr, protocol.KindStateRestore, push)
		}
	}
}

// gmOnStateRestore adopts a failed GM's archived telemetry pushed by the GL.
func (m *Manager) gmOnStateRestore(req *transport.Request) {
	push, ok := req.Payload.(protocol.StateRestore)
	if !ok {
		return
	}
	m.mu.Lock()
	active := m.role == RoleGM && !m.stopped
	m.mu.Unlock()
	if !active {
		return
	}
	latency := m.rt.Now() - time.Duration(push.FailedAtNs)
	m.restoreState(string(push.FailedGM), push.Snapshot, push.Events, latency)
}

// gmRecoverState is the GM bootstrap phase: fetch this GM's archived state
// from the GL and rebuild the hub as snapshot + journal tail. started is the
// stint's start instant, so the journaled recovery latency measures bootstrap
// start → restore completion.
func (m *Manager) gmRecoverState(started time.Duration) {
	m.mu.Lock()
	gl := m.glAddr
	active := m.role == RoleGM && !m.stopped
	m.mu.Unlock()
	if !active || gl == "" {
		return
	}
	fetch := protocol.RecoveryFetchRequest{GM: m.cfg.ID}
	m.bus.Call(m.cfg.Addr, gl, protocol.KindRecoveryFetch, fetch, m.cfg.CallTimeout, func(reply any, err error) {
		if err != nil {
			return // a fresh GL has no archive; state-sync pushes rebuild it
		}
		resp, ok := reply.(protocol.RecoveryFetchResponse)
		if !ok || !resp.Found {
			return
		}
		m.mu.Lock()
		active := m.role == RoleGM && !m.stopped
		m.mu.Unlock()
		if !active {
			return
		}
		m.restoreState(string(m.cfg.ID), resp.Snapshot, resp.Events, m.rt.Now()-started)
	})
}

// restoreState merges a replicated snapshot + journal tail into this
// manager's hub, re-arms the machinery that consumes the restored series
// (view memo, liveness sweep; detector state travels in the snapshot) and
// journals the recovery with its measured latency.
func (m *Manager) restoreState(source string, snap telemetry.HubSnapshot, tail []telemetry.Event, latency time.Duration) {
	series, events := m.tel.Restore(snap, tail)
	m.mu.Lock()
	if m.role == RoleGM && !m.stopped {
		// The restored series change what the capacity views would read;
		// drop the memoized builds and re-arm the liveness sweep so adopted
		// vm/* series are reconciled against inventory after the grace.
		m.bumpViewEpochLocked()
		m.viewMemo.Invalidate()
		if m.cfg.VMLivenessGrace > 0 && m.sweep.unsub != nil {
			m.sweep.armLocked(m.rt.Now() + m.cfg.VMLivenessGrace)
		}
	}
	m.mu.Unlock()
	if series == 0 && events == 0 {
		return // nothing new: shared hub, or a re-delivered push
	}
	if latency < 0 {
		latency = 0
	}
	m.mark("gm.recoveries", 1)
	m.observe("gm.recovery-latency", latency)
	m.emit(telemetry.EventGMRecovered, telemetry.GMEntity(m.cfg.ID), telemetry.A(
		"source", source,
		"series", strconv.Itoa(series),
		"events", strconv.Itoa(events),
		"latencyNs", strconv.FormatInt(int64(latency), 10)))
}
