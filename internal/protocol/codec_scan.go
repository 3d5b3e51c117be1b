package protocol

import (
	"bytes"
	"strconv"

	"snooze/internal/types"
)

// Reflection-free decoders of the four hot kinds. Each accepts exactly the
// text its encoder (and therefore encoding/json) emits for the type: the
// struct's keys in declaration order, omitempty keys present or absent, no
// whitespace, strings of printable ASCII without escapes, numbers in JSON's
// grammar. On anything else it reports !ok and the caller decodes the same
// bytes with encoding/json, which then decides value or error; so an
// accepted input must decode to the value encoding/json would produce
// (FuzzDecodeRequest and FuzzDecodeReply hold the two against each other).

// scanner walks data. The first mismatch sets bad, after which every method
// is a no-op returning zero, so a decoder reads straight through and checks
// once at the end.
type scanner struct {
	data []byte
	i    int
	bad  bool
}

// done reports whether the whole input was consumed without a mismatch.
func (s *scanner) done() bool { return !s.bad && s.i == len(s.data) }

// lit consumes the literal text l.
func (s *scanner) lit(l string) {
	if !s.tryLit(l) {
		s.bad = true
	}
}

// tryLit consumes l if the input continues with it.
func (s *scanner) tryLit(l string) bool {
	if s.bad || len(s.data)-s.i < len(l) || string(s.data[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// str consumes a string and returns its contents, which alias data: callers
// copy. Escapes and bytes outside printable ASCII are a mismatch (encoding/json
// would unescape, or replace invalid UTF-8).
func (s *scanner) str() []byte {
	if s.bad || s.i >= len(s.data) || s.data[s.i] != '"' {
		s.bad = true
		return nil
	}
	for j := s.i + 1; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			tok := s.data[s.i+1 : j]
			s.i = j + 1
			return tok
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// integer consumes the integer part of a JSON number: "0", or digits not
// starting with 0.
func (s *scanner) integer() {
	if s.i < len(s.data) && s.data[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		s.bad = true
	}
}

// float consumes a JSON number and converts it as encoding/json does, with
// strconv.ParseFloat; a literal out of float64's range is a mismatch.
func (s *scanner) float() float64 {
	if s.bad {
		return 0
	}
	start := s.i
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	mantStart := s.i
	s.integer()
	frac := 0
	if s.i < len(s.data) && s.data[s.i] == '.' {
		s.i++
		if frac = s.digits(); frac == 0 {
			s.bad = true
		}
	}
	mantEnd := s.i
	if s.i < len(s.data) && (s.data[s.i] == 'e' || s.data[s.i] == 'E') {
		s.i++
		if s.i < len(s.data) && (s.data[s.i] == '+' || s.data[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.bad {
		return 0
	}
	// Up to 15 digits and no exponent: mantissa and power of ten are both
	// exact float64s, so one division is the correctly rounded result — the
	// case ParseFloat also short-cuts, minus its re-scan of the literal.
	if mantEnd == s.i && mantEnd-mantStart <= 15 {
		var mant uint64
		for _, c := range s.data[mantStart:mantEnd] {
			if c != '.' {
				mant = mant*10 + uint64(c-'0')
			}
		}
		f := float64(mant)
		if frac > 0 {
			f /= pow10[frac]
		}
		if neg {
			f = -f
		}
		return f
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// int64 consumes an integer literal of at most 18 digits (more could
// overflow; encoding/json then decides). A fraction or exponent after it
// fails the literal the caller expects next.
func (s *scanner) int64() int64 {
	if s.bad {
		return 0
	}
	neg := s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	v := int64(s.uint64())
	if neg {
		v = -v
	}
	return v
}

func (s *scanner) uint64() uint64 {
	if s.bad {
		return 0
	}
	start := s.i
	s.integer()
	if s.bad || s.i-start > 18 {
		s.bad = true
		return 0
	}
	var v uint64
	for _, c := range s.data[start:s.i] {
		v = v*10 + uint64(c-'0')
	}
	return v
}

// int consumes an integer that fits the platform's int.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}

func (s *scanner) bool() bool {
	if s.tryLit("true") {
		return true
	}
	s.lit("false")
	return false
}

func (s *scanner) vector(v *types.ResourceVector) {
	s.lit(`{"cpu":`)
	v.CPU = s.float()
	s.lit(`,"memory":`)
	v.Memory = s.float()
	s.lit(`,"netRx":`)
	v.NetRx = s.float()
	s.lit(`,"netTx":`)
	v.NetTx = s.float()
	s.lit(`}`)
}

// vmSpec decodes a VMSpec. known holds IDs this message already carries (a
// monitor report lists the node's VM IDs before the VM statuses); an ID found
// there is shared instead of copied again.
func (s *scanner) vmSpec(v *types.VMSpec, known []types.VMID) {
	s.lit(`{"id":`)
	v.ID = internVMID(s.str(), known)
	s.lit(`,"requested":`)
	s.vector(&v.Requested)
	if s.tryLit(`,"traceId":`) {
		v.TraceID = string(s.str())
	}
	s.lit(`}`)
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

func (s *scanner) vmIDs() []types.VMID {
	if s.tryLit(`null`) {
		return nil
	}
	s.lit(`[`)
	if s.bad || s.tryLit(`]`) {
		return []types.VMID{}
	}
	// Two quotes per element up to the closing bracket: a capacity that is
	// exact for every well-formed array of escape-free strings.
	end := bytes.IndexByte(s.data[s.i:], ']')
	if end < 0 {
		s.bad = true
		return nil
	}
	ids := make([]types.VMID, 0, bytes.Count(s.data[s.i:s.i+end], []byte{'"'})/2)
	for {
		ids = append(ids, types.VMID(s.str()))
		if !s.tryLit(`,`) {
			break
		}
	}
	s.lit(`]`)
	return ids
}

func (s *scanner) nodeStatus(v *types.NodeStatus) {
	s.lit(`{"spec":{"id":`)
	v.Spec.ID = types.NodeID(s.str())
	s.lit(`,"capacity":`)
	s.vector(&v.Spec.Capacity)
	s.lit(`},"power":`)
	v.Power = types.PowerState(s.int())
	s.lit(`,"used":`)
	s.vector(&v.Used)
	s.lit(`,"reserved":`)
	s.vector(&v.Reserved)
	s.lit(`,"vms":`)
	v.VMs = s.vmIDs()
	s.lit(`,"idle":`)
	v.Idle = s.bool()
	s.lit(`,"idleSince":`)
	v.IdleSince = s.int64()
	s.lit(`,"generation":`)
	v.Generation = s.uint64()
	s.lit(`}`)
}

// vmStatuses decodes the VM list of a report about node: as many entries as
// the node status lists VMs, unless the sender disagrees with itself.
func (s *scanner) vmStatuses(node *types.NodeStatus) []types.VMStatus {
	if s.tryLit(`null`) {
		return nil
	}
	s.lit(`[`)
	if s.bad || s.tryLit(`]`) {
		return []types.VMStatus{}
	}
	vms := make([]types.VMStatus, 0, len(node.VMs))
	for {
		var v types.VMStatus
		s.lit(`{"spec":`)
		s.vmSpec(&v.Spec, node.VMs)
		s.lit(`,"state":`)
		v.State = types.VMState(s.int())
		if s.tryLit(`,"node":`) {
			if tok := s.str(); string(tok) == string(node.Spec.ID) {
				v.Node = node.Spec.ID
			} else {
				v.Node = types.NodeID(tok)
			}
		}
		s.lit(`,"used":`)
		s.vector(&v.Used)
		s.lit(`}`)
		vms = append(vms, v)
		if !s.tryLit(`,`) {
			break
		}
	}
	s.lit(`]`)
	return vms
}

func scanMonitorReport(data []byte) (v MonitorReport, ok bool) {
	s := scanner{data: data}
	s.lit(`{"status":`)
	s.nodeStatus(&v.Status)
	s.lit(`,"vms":`)
	v.VMs = s.vmStatuses(&v.Status)
	if s.tryLit(`,"atNs":`) {
		v.AtNs = s.int64()
	}
	s.lit(`}`)
	return v, s.done()
}

func scanStartVMRequest(data []byte) (v StartVMRequest, ok bool) {
	s := scanner{data: data}
	s.lit(`{"spec":`)
	s.vmSpec(&v.Spec, nil)
	if s.tryLit(`,"traceId":`) {
		v.TraceID = string(s.str())
	}
	if s.tryLit(`,"parentSpan":`) {
		v.ParentSpan = string(s.str())
	}
	s.lit(`}`)
	return v, s.done()
}

func scanStartVMResponse(data []byte) (v StartVMResponse, ok bool) {
	s := scanner{data: data}
	s.lit(`{"ok":`)
	v.OK = s.bool()
	if s.tryLit(`,"error":`) {
		v.Error = string(s.str())
	}
	s.lit(`}`)
	return v, s.done()
}

func scanGMHeartbeat(data []byte) (v GMHeartbeat, ok bool) {
	s := scanner{data: data}
	s.lit(`{"gm":`)
	v.GM = types.GroupManagerID(s.str())
	s.lit(`,"addr":`)
	v.Addr = string(s.str())
	s.lit(`}`)
	return v, s.done()
}

func scanGLHeartbeat(data []byte) (v GLHeartbeat, ok bool) {
	s := scanner{data: data}
	s.lit(`{"addr":`)
	v.Addr = string(s.str())
	s.lit(`,"epoch":`)
	v.Epoch = s.uint64()
	s.lit(`}`)
	return v, s.done()
}
