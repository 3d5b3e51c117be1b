package protocol

import (
	"snooze/internal/types"
	"snooze/internal/wirejson"
)

// Reflection-free decoders of the four hot kinds. Each accepts exactly the
// text its encoder (and therefore encoding/json) emits for the type: the
// struct's keys in declaration order, omitempty keys present or absent, no
// whitespace, strings of printable ASCII without escapes, numbers in JSON's
// grammar. On anything else it reports !ok and the caller decodes the same
// bytes with encoding/json, which then decides value or error; so an
// accepted input must decode to the value encoding/json would produce
// (FuzzDecodeRequest and FuzzDecodeReply hold the two against each other).

// scanner adds the message structs' shared parts to the scanning primitives.
type scanner struct{ wirejson.Scanner }

func scan(data []byte) scanner { return scanner{wirejson.Scanner{Data: data}} }

func (s *scanner) vector(v *types.ResourceVector) {
	s.Lit(`{"cpu":`)
	v.CPU = s.Float()
	s.Lit(`,"memory":`)
	v.Memory = s.Float()
	s.Lit(`,"netRx":`)
	v.NetRx = s.Float()
	s.Lit(`,"netTx":`)
	v.NetTx = s.Float()
	s.Lit(`}`)
}

// vmSpec decodes a VMSpec. known holds IDs this message already carries (a
// monitor report lists the node's VM IDs before the VM statuses); an ID found
// there is shared instead of copied again.
func (s *scanner) vmSpec(v *types.VMSpec, known []types.VMID) {
	s.Lit(`{"id":`)
	v.ID = internVMID(s.Str(), known)
	s.Lit(`,"requested":`)
	s.vector(&v.Requested)
	if s.TryLit(`,"traceId":`) {
		v.TraceID = string(s.Str())
	}
	s.Lit(`}`)
}

// internScanMax bounds the linear search of internVMID, so that sharing
// costs a report of n VMs at most n×internScanMax short comparisons.
const internScanMax = 64

func internVMID(tok []byte, known []types.VMID) types.VMID {
	if len(known) <= internScanMax {
		for _, id := range known {
			if string(id) == string(tok) {
				return id
			}
		}
	}
	return types.VMID(tok)
}

func (s *scanner) nodeStatus(v *types.NodeStatus) {
	s.Lit(`{"spec":{"id":`)
	v.Spec.ID = types.NodeID(s.Str())
	s.Lit(`,"capacity":`)
	s.vector(&v.Spec.Capacity)
	s.Lit(`},"power":`)
	v.Power = types.PowerState(s.Int())
	s.Lit(`,"used":`)
	s.vector(&v.Used)
	s.Lit(`,"reserved":`)
	s.vector(&v.Reserved)
	s.Lit(`,"vms":`)
	v.VMs = wirejson.ScanStrings[types.VMID](&s.Scanner)
	s.Lit(`,"idle":`)
	v.Idle = s.Bool()
	s.Lit(`,"idleSince":`)
	v.IdleSince = s.Int64()
	s.Lit(`,"generation":`)
	v.Generation = s.Uint64()
	s.Lit(`}`)
}

// vmStatuses decodes the VM list of a report about node: as many entries as
// the node status lists VMs, unless the sender disagrees with itself.
func (s *scanner) vmStatuses(node *types.NodeStatus) []types.VMStatus {
	if s.TryLit(`null`) {
		return nil
	}
	s.Lit(`[`)
	if s.Failed() || s.TryLit(`]`) {
		return []types.VMStatus{}
	}
	vms := make([]types.VMStatus, 0, len(node.VMs))
	for {
		var v types.VMStatus
		s.Lit(`{"spec":`)
		s.vmSpec(&v.Spec, node.VMs)
		s.Lit(`,"state":`)
		v.State = types.VMState(s.Int())
		if s.TryLit(`,"node":`) {
			if tok := s.Str(); string(tok) == string(node.Spec.ID) {
				v.Node = node.Spec.ID
			} else {
				v.Node = types.NodeID(tok)
			}
		}
		s.Lit(`,"used":`)
		s.vector(&v.Used)
		s.Lit(`}`)
		vms = append(vms, v)
		if !s.TryLit(`,`) {
			break
		}
	}
	s.Lit(`]`)
	return vms
}

func scanMonitorReport(data []byte) (v MonitorReport, ok bool) {
	s := scan(data)
	s.Lit(`{"status":`)
	s.nodeStatus(&v.Status)
	s.Lit(`,"vms":`)
	v.VMs = s.vmStatuses(&v.Status)
	if s.TryLit(`,"atNs":`) {
		v.AtNs = s.Int64()
	}
	s.Lit(`}`)
	return v, s.Done()
}

func scanStartVMRequest(data []byte) (v StartVMRequest, ok bool) {
	s := scan(data)
	s.Lit(`{"spec":`)
	s.vmSpec(&v.Spec, nil)
	if s.TryLit(`,"traceId":`) {
		v.TraceID = string(s.Str())
	}
	if s.TryLit(`,"parentSpan":`) {
		v.ParentSpan = string(s.Str())
	}
	s.Lit(`}`)
	return v, s.Done()
}

func scanStartVMResponse(data []byte) (v StartVMResponse, ok bool) {
	s := scan(data)
	s.Lit(`{"ok":`)
	v.OK = s.Bool()
	if s.TryLit(`,"error":`) {
		v.Error = string(s.Str())
	}
	s.Lit(`}`)
	return v, s.Done()
}

func scanGMHeartbeat(data []byte) (v GMHeartbeat, ok bool) {
	s := scan(data)
	s.Lit(`{"gm":`)
	v.GM = types.GroupManagerID(s.Str())
	s.Lit(`,"addr":`)
	v.Addr = string(s.Str())
	s.Lit(`}`)
	return v, s.Done()
}

func scanGLHeartbeat(data []byte) (v GLHeartbeat, ok bool) {
	s := scan(data)
	s.Lit(`{"addr":`)
	v.Addr = string(s.Str())
	s.Lit(`,"epoch":`)
	v.Epoch = s.Uint64()
	s.Lit(`}`)
	return v, s.Done()
}
