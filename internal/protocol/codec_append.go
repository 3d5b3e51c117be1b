package protocol

import (
	"snooze/internal/types"
	"snooze/internal/wirejson"
)

// Append-style encoders of the four hot kinds. Each writes exactly the bytes
// encoding/json writes for the same value — field order and names from the
// struct tags, omitempty, null for a nil slice, its float and string
// formatting — so a peer cannot tell which encoder a frame came from.
// TestAppendMatchesMarshal pins that.

// encoder adds the message structs' shared parts to the append primitives.
type encoder struct{ wirejson.Encoder }

func appendTo(dst []byte) encoder { return encoder{wirejson.Encoder{Buf: dst}} }

func (e *encoder) vector(v *types.ResourceVector) {
	e.Lit(`{"cpu":`)
	e.Float(v.CPU)
	e.Lit(`,"memory":`)
	e.Float(v.Memory)
	e.Lit(`,"netRx":`)
	e.Float(v.NetRx)
	e.Lit(`,"netTx":`)
	e.Float(v.NetTx)
	e.Lit(`}`)
}

func (e *encoder) vmSpec(v *types.VMSpec) {
	e.Lit(`{"id":`)
	e.Str(string(v.ID))
	e.Lit(`,"requested":`)
	e.vector(&v.Requested)
	if v.TraceID != "" {
		e.Lit(`,"traceId":`)
		e.Str(v.TraceID)
	}
	e.Lit(`}`)
}

func (e *encoder) vmStatuses(vms []types.VMStatus) {
	if vms == nil {
		e.Lit(`null`)
		return
	}
	e.Lit(`[`)
	for i := range vms {
		v := &vms[i]
		if i > 0 {
			e.Lit(`,`)
		}
		e.Lit(`{"spec":`)
		e.vmSpec(&v.Spec)
		e.Lit(`,"state":`)
		e.Int(int64(v.State))
		if v.Node != "" {
			e.Lit(`,"node":`)
			e.Str(string(v.Node))
		}
		e.Lit(`,"used":`)
		e.vector(&v.Used)
		e.Lit(`}`)
	}
	e.Lit(`]`)
}

func (e *encoder) nodeStatus(v *types.NodeStatus) {
	e.Lit(`{"spec":{"id":`)
	e.Str(string(v.Spec.ID))
	e.Lit(`,"capacity":`)
	e.vector(&v.Spec.Capacity)
	e.Lit(`},"power":`)
	e.Int(int64(v.Power))
	e.Lit(`,"used":`)
	e.vector(&v.Used)
	e.Lit(`,"reserved":`)
	e.vector(&v.Reserved)
	e.Lit(`,"vms":`)
	wirejson.AppendStrings(&e.Encoder, v.VMs)
	e.Lit(`,"idle":`)
	e.Bool(v.Idle)
	e.Lit(`,"idleSince":`)
	e.Int(v.IdleSince)
	e.Lit(`,"generation":`)
	e.Uint(v.Generation)
	e.Lit(`}`)
}

// monitorReport and startVMRequest report whether buf holds the encoding
// (false: a non-finite float).

func (e *encoder) monitorReport(v *MonitorReport) bool {
	e.Lit(`{"status":`)
	e.nodeStatus(&v.Status)
	e.Lit(`,"vms":`)
	e.vmStatuses(v.VMs)
	if v.AtNs != 0 {
		e.Lit(`,"atNs":`)
		e.Int(v.AtNs)
	}
	e.Lit(`}`)
	return !e.NonFinite
}

func (e *encoder) startVMRequest(v *StartVMRequest) bool {
	e.Lit(`{"spec":`)
	e.vmSpec(&v.Spec)
	if v.TraceID != "" {
		e.Lit(`,"traceId":`)
		e.Str(v.TraceID)
	}
	if v.ParentSpan != "" {
		e.Lit(`,"parentSpan":`)
		e.Str(v.ParentSpan)
	}
	e.Lit(`}`)
	return !e.NonFinite
}

func (e *encoder) startVMResponse(v *StartVMResponse) {
	e.Lit(`{"ok":`)
	e.Bool(v.OK)
	if v.Error != "" {
		e.Lit(`,"error":`)
		e.Str(v.Error)
	}
	e.Lit(`}`)
}

func (e *encoder) gmHeartbeat(v *GMHeartbeat) {
	e.Lit(`{"gm":`)
	e.Str(string(v.GM))
	e.Lit(`,"addr":`)
	e.Str(v.Addr)
	e.Lit(`}`)
}

func (e *encoder) glHeartbeat(v *GLHeartbeat) {
	e.Lit(`{"addr":`)
	e.Str(v.Addr)
	e.Lit(`,"epoch":`)
	e.Uint(v.Epoch)
	e.Lit(`}`)
}
