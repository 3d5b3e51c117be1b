package protocol

import (
	"encoding/json"
	"math"
	"strconv"

	"snooze/internal/types"
)

// Append-style encoders of the four hot kinds. Each writes exactly the bytes
// encoding/json writes for the same value — field order and names from the
// struct tags, omitempty, null for a nil slice, its float and string
// formatting — so a peer cannot tell which encoder a frame came from.
// TestAppendMatchesMarshal pins that.

// AppendString appends s as a JSON string, as encoding/json writes it
// (HTML-sensitive characters, U+2028/9 and invalid UTF-8 escaped). Printable
// ASCII is copied; anything else takes json.Marshal's escaping.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// encoder appends to buf. nonFinite records that a NaN or an infinity was
// met: encoding/json refuses those, so the caller discards buf and lets
// json.Marshal produce the error.
type encoder struct {
	buf       []byte
	nonFinite bool
}

func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }
func (e *encoder) str(s string) { e.buf = AppendString(e.buf, s) }
func (e *encoder) int(v int64)  { e.buf = strconv.AppendInt(e.buf, v, 10) }
func (e *encoder) bool(v bool)  { e.buf = strconv.AppendBool(e.buf, v) }

// float writes f as encoding/json's float64 encoder does: shortest
// representation that round-trips, exponent form below 1e-6 and from 1e21,
// a two-digit exponent's leading zero dropped.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.nonFinite = true
		return
	}
	// Capacities, reservations and idle usage are whole numbers; their digits
	// are the integer's (exact below 2^53), without the shortest-float search.
	if -1e15 < f && f < 1e15 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			e.int(i)
			return
		}
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		e.buf = strconv.AppendFloat(e.buf, f, 'e', -1, 64)
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && (e.buf[n-3] == '-' || e.buf[n-3] == '+') && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
		return
	}
	e.buf = strconv.AppendFloat(e.buf, f, 'f', -1, 64)
}

func (e *encoder) vector(v *types.ResourceVector) {
	e.lit(`{"cpu":`)
	e.float(v.CPU)
	e.lit(`,"memory":`)
	e.float(v.Memory)
	e.lit(`,"netRx":`)
	e.float(v.NetRx)
	e.lit(`,"netTx":`)
	e.float(v.NetTx)
	e.lit(`}`)
}

func (e *encoder) vmSpec(v *types.VMSpec) {
	e.lit(`{"id":`)
	e.str(string(v.ID))
	e.lit(`,"requested":`)
	e.vector(&v.Requested)
	if v.TraceID != "" {
		e.lit(`,"traceId":`)
		e.str(v.TraceID)
	}
	e.lit(`}`)
}

func (e *encoder) vmStatuses(vms []types.VMStatus) {
	if vms == nil {
		e.lit(`null`)
		return
	}
	e.lit(`[`)
	for i := range vms {
		v := &vms[i]
		if i > 0 {
			e.lit(`,`)
		}
		e.lit(`{"spec":`)
		e.vmSpec(&v.Spec)
		e.lit(`,"state":`)
		e.int(int64(v.State))
		if v.Node != "" {
			e.lit(`,"node":`)
			e.str(string(v.Node))
		}
		e.lit(`,"used":`)
		e.vector(&v.Used)
		e.lit(`}`)
	}
	e.lit(`]`)
}

func (e *encoder) nodeStatus(v *types.NodeStatus) {
	e.lit(`{"spec":{"id":`)
	e.str(string(v.Spec.ID))
	e.lit(`,"capacity":`)
	e.vector(&v.Spec.Capacity)
	e.lit(`},"power":`)
	e.int(int64(v.Power))
	e.lit(`,"used":`)
	e.vector(&v.Used)
	e.lit(`,"reserved":`)
	e.vector(&v.Reserved)
	e.lit(`,"vms":`)
	if v.VMs == nil {
		e.lit(`null`)
	} else {
		e.lit(`[`)
		for i, id := range v.VMs {
			if i > 0 {
				e.lit(`,`)
			}
			e.str(string(id))
		}
		e.lit(`]`)
	}
	e.lit(`,"idle":`)
	e.bool(v.Idle)
	e.lit(`,"idleSince":`)
	e.int(v.IdleSince)
	e.lit(`,"generation":`)
	e.buf = strconv.AppendUint(e.buf, v.Generation, 10)
	e.lit(`}`)
}

// monitorReport and startVMRequest report whether buf holds the encoding
// (false: a non-finite float).

func (e *encoder) monitorReport(v *MonitorReport) bool {
	e.lit(`{"status":`)
	e.nodeStatus(&v.Status)
	e.lit(`,"vms":`)
	e.vmStatuses(v.VMs)
	if v.AtNs != 0 {
		e.lit(`,"atNs":`)
		e.int(v.AtNs)
	}
	e.lit(`}`)
	return !e.nonFinite
}

func (e *encoder) startVMRequest(v *StartVMRequest) bool {
	e.lit(`{"spec":`)
	e.vmSpec(&v.Spec)
	if v.TraceID != "" {
		e.lit(`,"traceId":`)
		e.str(v.TraceID)
	}
	if v.ParentSpan != "" {
		e.lit(`,"parentSpan":`)
		e.str(v.ParentSpan)
	}
	e.lit(`}`)
	return !e.nonFinite
}

func (e *encoder) startVMResponse(v *StartVMResponse) {
	e.lit(`{"ok":`)
	e.bool(v.OK)
	if v.Error != "" {
		e.lit(`,"error":`)
		e.str(v.Error)
	}
	e.lit(`}`)
}

func (e *encoder) gmHeartbeat(v *GMHeartbeat) {
	e.lit(`{"gm":`)
	e.str(string(v.GM))
	e.lit(`,"addr":`)
	e.str(v.Addr)
	e.lit(`}`)
}

func (e *encoder) glHeartbeat(v *GLHeartbeat) {
	e.lit(`{"addr":`)
	e.str(v.Addr)
	e.lit(`,"epoch":`)
	e.buf = strconv.AppendUint(e.buf, v.Epoch, 10)
	e.lit(`}`)
}
