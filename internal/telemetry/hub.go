package telemetry

import (
	"strings"
	"sync"
	"time"

	"snooze/internal/metrics"
	"snooze/internal/types"
)

// Canonical entity name prefixes used by the hierarchy's instrumentation.
const (
	EntityNodePrefix = "node/"
	EntityVMPrefix   = "vm/"
	EntityGMPrefix   = "gm/"
)

// internTable interns canonical entity names so the hot paths that resolve
// one name per entity per round — capacity-view builds resolve a node entity
// for every member on every build — allocate only on the first sighting of
// an ID. The read path is an RLock + map hit (string keys, no boxing); the
// table is bluntly capped like view.Cache: entity churn past the cap flushes
// everything, costing one re-intern round.
type internTable struct {
	prefix string
	mu     sync.RWMutex
	m      map[string]string
}

const maxInternEntries = 8192

func newInternTable(prefix string) *internTable {
	return &internTable{prefix: prefix, m: make(map[string]string)}
}

func (t *internTable) get(id string) string {
	t.mu.RLock()
	s, ok := t.m[id]
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[id]; ok {
		return s
	}
	if len(t.m) >= maxInternEntries {
		t.m = make(map[string]string)
	}
	s = t.prefix + id
	t.m[id] = s
	return s
}

var (
	nodeEntities = newInternTable(EntityNodePrefix)
	vmEntities   = newInternTable(EntityVMPrefix)
	gmEntities   = newInternTable(EntityGMPrefix)
)

// NodeEntity returns the canonical (interned) entity name of a node.
func NodeEntity(id types.NodeID) string { return nodeEntities.get(string(id)) }

// VMEntity returns the canonical (interned) entity name of a VM.
func VMEntity(id types.VMID) string { return vmEntities.get(string(id)) }

// GMEntity returns the canonical (interned) entity name of a group manager.
func GMEntity(id types.GroupManagerID) string { return gmEntities.get(string(id)) }

// Options parameterize a Hub.
type Options struct {
	// Store sizes the time-series side.
	Store StoreConfig
	// JournalCapacity is the event retention window (default 1024).
	JournalCapacity int
	// Thresholds configure the node anomaly detector, the one
	// overload/underload classifier (zero Overload: DefaultThresholds).
	Thresholds Thresholds
	// Metrics optionally receives ingestion counters
	// (telemetry.samples, telemetry.events).
	Metrics *metrics.Registry
}

// Hub bundles the store, the event journal and the node anomaly detector —
// the single handle the hierarchy, the simulated cluster and the api/v1
// backends share. One hub instance serves a whole deployment.
type Hub struct {
	store    *Store
	journal  *Journal
	detector *Detector
	reg      *metrics.Registry

	// owners stamps entities with the identity of the GM whose monitoring
	// flow feeds their series (see Claim). The GMs of a deployment share the
	// hub, so it fences cross-GM reconciliation: a GM ends the series of a
	// VM its LC's report omits only while no other GM has claimed it.
	ownerMu sync.RWMutex
	owners  map[string]string
}

// NewHub creates a hub.
func NewHub(opts Options) *Hub {
	return &Hub{
		store:    NewStore(opts.Store),
		journal:  NewJournal(opts.JournalCapacity),
		detector: NewDetector(opts.Thresholds),
		reg:      opts.Metrics,
		owners:   make(map[string]string),
	}
}

// Store returns the time-series store.
func (h *Hub) Store() *Store { return h.store }

// Journal returns the event journal.
func (h *Hub) Journal() *Journal { return h.journal }

// Record appends one sample. The hot path deliberately skips the metrics
// registry (a shared mutex); sample volume is published as a gauge by
// PublishGauges instead.
func (h *Hub) Record(entity, metric string, at time.Duration, v float64) {
	h.store.Append(entity, metric, at, v)
}

// TerminalVMStates are the vm.state attrs values that mark a VM as gone for
// good; emitting one drops the VM's series (see Emit). "vanished" is the
// synthetic state a manager journals for a VM that disappeared without any
// terminal event, with the reason attribute naming how it noticed:
// "left-report" when the VM's LC sends a monitor report that no longer lists
// it (a VM stopped behind the hierarchy's back), "unfed" when the report that
// fed the VM's series was lost (its GM failed or left the role, its LC was
// shed or failed) and no report has fed them again within 4 × LCTimeout.
var TerminalVMStates = map[string]bool{"terminated": true, "destroyed": true, "failed": true, "vanished": true}

// Emit publishes an event and returns it with its sequence number assigned.
// A vm.state event carrying a terminal state (TerminalVMStates) additionally
// forgets the VM's series and detector state, so dead VMs stop lingering in
// the store under churn.
func (h *Hub) Emit(typ, entity string, at time.Duration, attrs Attrs) Event {
	ev := h.journal.Publish(Event{At: at, Type: typ, Entity: entity, Attrs: attrs})
	if h.reg != nil {
		h.reg.Inc("telemetry.events", 1)
	}
	if typ == EventVMState && TerminalVMStates[attrs.Get("state")] {
		h.ForgetEntity(entity)
	}
	return ev
}

// EmitBatch publishes evs (At/Type/Entity/Attrs populated, Seq assigned here)
// through a single journal lock acquisition — the batched counterpart of Emit
// for hot loops that journal many events at once, such as a GM ending the
// series of the VMs a monitor report no longer lists. Terminal vm.state events forget their
// entities exactly as Emit would. evs is updated in place with the completed
// events.
func (h *Hub) EmitBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	h.journal.PublishBatch(evs)
	if h.reg != nil {
		h.reg.Inc("telemetry.events", int64(len(evs)))
	}
	for _, ev := range evs {
		if ev.Type == EventVMState && TerminalVMStates[ev.Attrs.Get("state")] {
			h.ForgetEntity(ev.Entity)
		}
	}
}

// The standard metrics of each entity kind, in the order the Record methods
// append them.
var (
	nodeMetrics  = []string{"cpu.used", "mem.used", "util", "vms"}
	groupMetrics = []string{"cpu.used", "cpu.reserved", "util", "vms", "active-lcs"}
	vmMetrics    = []string{"cpu.used", "mem.used", "net.rx", "net.tx"}
)

// RecordNode appends the standard per-node series from one monitored status:
// cpu.used, mem.used, util (L∞ utilization) and vms.
func (h *Hub) RecordNode(at time.Duration, st types.NodeStatus) {
	v := [...]float64{st.Used.CPU, st.Used.Memory, st.Used.Divide(st.Spec.Capacity).NormInf(), float64(len(st.VMs))}
	h.store.appendEntity(NodeEntity(st.Spec.ID), nodeMetrics, at, v[:])
}

// RecordGroup appends the standard per-GM series from one group summary:
// cpu.used, cpu.reserved, util (L∞ utilization of the group), vms and
// active-lcs. The util series feeds the group-level capacity views the GL's
// dispatch policies consume.
func (h *Hub) RecordGroup(at time.Duration, s types.GroupSummary) {
	v := [...]float64{s.Used.CPU, s.Reserved.CPU, s.Used.Divide(s.Total).NormInf(), float64(s.VMs), float64(s.ActiveLCs)}
	h.store.appendEntity(GMEntity(s.GM), groupMetrics, at, v[:])
}

// RecordVM appends the full per-VM demand series from one monitored VM:
// cpu.used, mem.used, net.rx and net.tx — the four dimensions the view
// Builder's Demand reconstruction zips back into ResourceVectors for the
// GM's estimators.
func (h *Hub) RecordVM(at time.Duration, vm types.VMStatus) {
	h.recordVM(VMEntity(vm.Spec.ID), at, &vm)
}

func (h *Hub) recordVM(entity string, at time.Duration, vm *types.VMStatus) {
	v := [...]float64{vm.Used.CPU, vm.Used.Memory, vm.Used.NetRx, vm.Used.NetTx}
	h.store.appendEntity(entity, vmMetrics, at, v[:])
}

// reportVMs is how many VM entities RecordReport keeps on its stack for the
// claim pass; a larger report spills them to the heap.
const reportVMs = 64

// RecordReport ingests one monitor report of a node and its VMs, fed by the
// GM owner: it leaves what RecordNode, then RecordVM and Claim for each VM
// in order, would leave. Each VM entity is resolved once, each entity's
// samples take one shard lock and one update of the sample counter, and the
// stamps take one owner read-lock pass, the write lock only if one changes.
func (h *Hub) RecordReport(at time.Duration, st types.NodeStatus, vms []types.VMStatus, owner string) {
	h.RecordNode(at, st)
	var buf [reportVMs]string
	entities := buf[:0]
	for i := range vms {
		entity := VMEntity(vms[i].Spec.ID)
		h.recordVM(entity, at, &vms[i])
		entities = append(entities, entity)
	}
	h.claim(entities, owner)
}

// DetectNode feeds one node status into the anomaly detector and publishes
// the resulting event, if any. It returns the published event and whether
// one fired — callers (the GM) hang relocation off that signal.
func (h *Hub) DetectNode(at time.Duration, st types.NodeStatus) (Event, bool) {
	ev, ok := h.detector.Observe(NodeEntity(st.Spec.ID), at, st)
	if !ok {
		return Event{}, false
	}
	return h.Emit(ev.Type, ev.Entity, ev.At, ev.Attrs), true
}

// Claim stamps entity as owned by owner — the GM whose monitoring flow feeds
// its series. The hierarchy stamps vm/* series, which keeps a GM from ending
// the series of a VM another GM is feeding, and each GM's gm/<id> rollup
// series, which tells the GL that the GM feeds it directly. Ownership follows
// the monitoring flow: when an LC rejoins another GM, the new GM's next
// report re-claims its entities. The fast path (unchanged owner) is a
// read-lock and a map hit.
func (h *Hub) Claim(entity, owner string) { h.claim([]string{entity}, owner) }

// claim stamps every one of entities with owner. The read-lock pass finds
// the first stamp that differs; only then is the write lock taken.
func (h *Hub) claim(entities []string, owner string) {
	h.ownerMu.RLock()
	stale := len(entities)
	for i, entity := range entities {
		if cur, ok := h.owners[entity]; !ok || cur != owner {
			stale = i
			break
		}
	}
	h.ownerMu.RUnlock()
	if stale == len(entities) {
		return
	}
	h.ownerMu.Lock()
	for _, entity := range entities[stale:] {
		h.owners[entity] = owner
	}
	h.ownerMu.Unlock()
}

// Owner returns the owning-GM identity stamped on entity, if any (see Claim).
func (h *Hub) Owner(entity string) (string, bool) {
	h.ownerMu.RLock()
	defer h.ownerMu.RUnlock()
	owner, ok := h.owners[entity]
	return owner, ok
}

// Release drops every stamp owner still holds and returns the vm/* entities
// among them: the VMs whose series owner fed last. The GL calls it
// when it declares a GM failed and reaps those of the returned VMs that no
// survivor reports again. Stamps a survivor has already re-claimed carry the
// survivor's identity and are left alone.
func (h *Hub) Release(owner string) []string {
	var vms []string
	h.ownerMu.Lock()
	for entity, o := range h.owners {
		if o == owner {
			delete(h.owners, entity)
			if strings.HasPrefix(entity, EntityVMPrefix) {
				vms = append(vms, entity)
			}
		}
	}
	h.ownerMu.Unlock()
	return vms
}

// ForgetEntity drops an entity's series, detector state and owner stamp when
// it leaves the deployment (node failure, VM departure) so the store does not
// grow without bound under churn. It costs the entity's own series (see
// Store.RemoveEntity), so it can run at monitoring rate.
func (h *Hub) ForgetEntity(entity string) {
	h.store.RemoveEntity(entity)
	h.detector.Forget(entity)
	h.ownerMu.Lock()
	delete(h.owners, entity)
	h.ownerMu.Unlock()
}

// PublishGauges refreshes the hub's registry gauges (series/sample/event
// volume); backends call it before snapshotting metrics.
func (h *Hub) PublishGauges() {
	if h.reg == nil {
		return
	}
	h.reg.SetGauge("telemetry.series", float64(h.store.NumSeries()))
	h.reg.SetGauge("telemetry.samples-total", float64(h.store.TotalSamples()))
	h.reg.SetGauge("telemetry.events-last-seq", float64(h.journal.LastSeq()))
	h.reg.SetGauge("telemetry.watchers", float64(h.journal.Subscribers()))
}
