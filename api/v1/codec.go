package apiv1

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"

	"snooze/internal/wirejson"
)

// Body codecs. A /v1 body is whatever encoding/json makes of its DTO, for
// every route. The bodies that cross the wire on every call of the hot
// routes — the two list bodies that grow with the deployment (VMList and
// NodeList, what a dashboard polls) and the submission's request and result
// (SubmitRequest and SubmitResult, one of each per POST /v1/vms) — also have
// an append encoder and a strict scanning decoder that produce and accept the
// same bytes without reflection (field order and names from the struct tags,
// omitempty, null for a nil slice or map, map keys sorted, encoding/json's
// float and string formatting, json.Encoder's trailing newline). Which path
// runs is decided by the body's type and shape, never by an option: the
// encoder meets a value it does not cover (a NaN) or the decoder meets input
// that is not exactly what the encoder emits (other key order, whitespace,
// escapes, unknown fields, another JSON library), and the body goes through
// encoding/json like those of the other routes. So servers and clients of
// either kind interoperate, and decoded values never alias the input. They
// do share memory with each other: the IDs of a body are slices of one
// string, so a body decodes in a constant number of allocations, and a
// retained item keeps its body's IDs alive (about 12 bytes a row).
// TestAppendListMatchesEncoder, TestAppendSubmitMatchesEncoder and the
// FuzzScan* targets hold the two paths against each other.

// AppendBody appends to dst the bytes json.NewEncoder(w).Encode(body) writes,
// and returns its error with dst unchanged.
func AppendBody(dst []byte, body any) ([]byte, error) {
	switch v := body.(type) {
	case VMList:
		if buf, ok := appendList(dst, v.Items, (*bodyEncoder).vm, v.Total, v.NextOffset); ok {
			return buf, nil
		}
	case NodeList:
		if buf, ok := appendList(dst, v.Items, (*bodyEncoder).node, v.Total, v.NextOffset); ok {
			return buf, nil
		}
	case SubmitRequest:
		if buf, ok := appendSubmitRequest(dst, &v); ok {
			return buf, nil
		}
	case SubmitResult:
		return appendSubmitResult(dst, &v), nil
	}
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// DecodeBody decodes a body into dst, as json.Unmarshal does into a zero
// *dst.
func DecodeBody(data []byte, dst any) error {
	if ScanBody(data, dst) {
		return nil
	}
	return json.Unmarshal(data, dst)
}

// ScanBody decodes data into dst, as json.Unmarshal does into a zero *dst,
// if data is exactly what AppendBody writes for a body with a hand codec,
// and reports whether it did. Otherwise dst is left as it was, and the
// caller decodes data with encoding/json: DecodeBody with json.Unmarshal, a
// server with the json.Decoder whose stricter rules its routes answer by.
func ScanBody(data []byte, dst any) bool {
	switch v := dst.(type) {
	case *VMList:
		if l, ok := scanVMList(data); ok {
			*v = l
			return true
		}
	case *NodeList:
		if l, ok := scanNodeList(data); ok {
			*v = l
			return true
		}
	case *SubmitRequest:
		if r, ok := scanSubmitRequest(data); ok {
			*v = r
			return true
		}
	case *SubmitResult:
		if r, ok := scanSubmitResult(data); ok {
			*v = r
			return true
		}
	}
	return false
}

type bodyEncoder struct{ wirejson.Encoder }

func (e *bodyEncoder) resources(r *Resources) {
	e.Lit(`{"cpu":`)
	e.Float(r.CPU)
	e.Lit(`,"memoryMb":`)
	e.Float(r.MemoryMB)
	e.Lit(`,"netRxMbps":`)
	e.Float(r.NetRxMbps)
	e.Lit(`,"netTxMbps":`)
	e.Float(r.NetTxMbps)
	e.Lit(`}`)
}

// appendList writes a list body: the items through item (null for a nil
// slice), the count, the omitempty cursor and json.Encoder's newline. It
// reports whether the result holds the encoding (false: a non-finite float).
func appendList[T any](dst []byte, items []T, item func(*bodyEncoder, *T), total, nextOffset int) ([]byte, bool) {
	e := bodyEncoder{wirejson.Encoder{Buf: dst}}
	e.Lit(`{"items":`)
	if items == nil {
		e.Lit(`null`)
	} else {
		e.Lit(`[`)
		for i := range items {
			if i > 0 {
				e.Lit(`,`)
			}
			item(&e, &items[i])
		}
		e.Lit(`]`)
	}
	e.Lit(`,"total":`)
	e.Int(int64(total))
	if nextOffset != 0 {
		e.Lit(`,"nextOffset":`)
		e.Int(int64(nextOffset))
	}
	e.Lit("}\n")
	return e.Buf, !e.NonFinite
}

// appendSubmitRequest writes a POST /v1/vms body and reports whether the
// result holds it (false: a non-finite float). Its loop is appendList's,
// without the function value through which the encoder would escape to the
// heap.
func appendSubmitRequest(dst []byte, r *SubmitRequest) ([]byte, bool) {
	e := bodyEncoder{wirejson.Encoder{Buf: dst}}
	e.Lit(`{"vms":`)
	if r.VMs == nil {
		e.Lit(`null`)
	} else {
		e.Lit(`[`)
		for i := range r.VMs {
			if i > 0 {
				e.Lit(`,`)
			}
			e.vmSpec(&r.VMs[i])
		}
		e.Lit(`]`)
	}
	e.Lit("}\n")
	return e.Buf, !e.NonFinite
}

func (e *bodyEncoder) vmSpec(v *VMSpec) {
	e.Lit(`{"id":`)
	e.Str(v.ID)
	e.Lit(`,"requested":`)
	e.resources(&v.Requested)
	if v.TraceID != "" {
		e.Lit(`,"traceId":`)
		e.Str(v.TraceID)
	}
	e.Lit(`}`)
}

// appendSubmitResult writes a submission's result: the placed map with its
// keys in encoding/json's order (sorted as strings), null for a nil map. It
// holds no float, so it always encodes.
func appendSubmitResult(dst []byte, r *SubmitResult) []byte {
	e := bodyEncoder{wirejson.Encoder{Buf: dst}}
	e.Lit(`{"placed":`)
	if r.Placed == nil {
		e.Lit(`null`)
	} else {
		var stack [16]string
		ids := stack[:0]
		if len(r.Placed) > len(stack) {
			ids = make([]string, 0, len(r.Placed))
		}
		for id := range r.Placed {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		e.Lit(`{`)
		for i, id := range ids {
			if i > 0 {
				e.Lit(`,`)
			}
			e.Str(id)
			e.Lit(`:`)
			e.Str(r.Placed[id])
		}
		e.Lit(`}`)
	}
	if len(r.Unplaced) > 0 {
		e.Lit(`,"unplaced":`)
		wirejson.AppendStrings(&e.Encoder, r.Unplaced)
	}
	e.Lit("}\n")
	return e.Buf
}

func (e *bodyEncoder) vm(v *VM) {
	e.Lit(`{"id":`)
	e.Str(v.ID)
	e.Lit(`,"requested":`)
	e.resources(&v.Requested)
	e.Lit(`,"state":`)
	e.Str(v.State)
	if v.Node != "" {
		e.Lit(`,"node":`)
		e.Str(v.Node)
	}
	e.Lit(`,"used":`)
	e.resources(&v.Used)
	if v.TraceID != "" {
		e.Lit(`,"traceId":`)
		e.Str(v.TraceID)
	}
	e.Lit(`}`)
}

func (e *bodyEncoder) node(n *Node) {
	e.Lit(`{"id":`)
	e.Str(n.ID)
	e.Lit(`,"capacity":`)
	e.resources(&n.Capacity)
	e.Lit(`,"power":`)
	e.Str(n.Power)
	e.Lit(`,"used":`)
	e.resources(&n.Used)
	e.Lit(`,"reserved":`)
	e.resources(&n.Reserved)
	if len(n.VMs) > 0 {
		e.Lit(`,"vms":`)
		wirejson.AppendStrings(&e.Encoder, n.VMs)
	}
	e.Lit(`,"idle":`)
	e.Bool(n.Idle)
	e.Lit(`}`)
}

// bodyScanner decodes a body. The strings that repeat from item to item — a
// VM's state and hosting node, a node's power state, a spec's trace name, a
// placement's node — are shared between the items instead of copied per item,
// and the IDs are sliced from one string built for the body, so a body costs
// a constant number of allocations however many items it holds. The price of
// the shared text is that a retained item keeps its body's IDs alive (about
// 12 bytes a row), as a retained element of wirejson.ScanStrings keeps its
// array's text.
type bodyScanner struct {
	wirejson.Scanner
	enums, hosts interner
	idBytes      int // the length of the IDs met, for setIDs
}

// id consumes an item's ID, which setIDs fills in once the whole body has
// been scanned.
func (s *bodyScanner) id() {
	s.Lit(`{"id":`)
	s.idBytes += len(s.Str())
}

// itemStart is how each item of an ID-keyed array starts. Quotes being
// unescaped in what a scanner accepts, it cannot occur inside a string: the
// number of its occurrences is the number of items, and the i-th is the
// i-th item's.
var itemStart = []byte(`{"id":"`)

// setIDs gives items their IDs, the strings after each itemStart in data,
// from one copy of their text of s.idBytes bytes.
func setIDs[T any](s *bodyScanner, items []T, id func(*T) *string) {
	var text strings.Builder
	text.Grow(s.idBytes)
	data := s.Data
	for i := range items {
		data = data[bytes.Index(data, itemStart)+len(itemStart):]
		n := bytes.IndexByte(data, '"')
		at := text.Len()
		text.Write(data[:n])
		*id(&items[i]) = text.String()[at:]
		data = data[n:]
	}
}

// interner returns one string per distinct token. The map that remembers
// them is made when a second distinct one is met: a body whose items all name
// the same node or state pays for one string, and the empty token for none.
type interner struct {
	last string // the last non-empty token met
	seen map[string]string
}

func (in *interner) get(tok []byte) string {
	switch {
	case len(tok) == 0:
		return ""
	case string(tok) == in.last:
		return in.last
	}
	s, ok := in.seen[string(tok)]
	if !ok {
		s = string(tok)
		if in.last != "" { // from the second distinct token on, every one is kept
			if in.seen == nil {
				in.seen = map[string]string{in.last: in.last}
			}
			in.seen[s] = s
		}
	}
	in.last = s
	return s
}

func (s *bodyScanner) resources(r *Resources) {
	s.Lit(`{"cpu":`)
	r.CPU = s.Float()
	s.Lit(`,"memoryMb":`)
	r.MemoryMB = s.Float()
	s.Lit(`,"netRxMbps":`)
	r.NetRxMbps = s.Float()
	s.Lit(`,"netTxMbps":`)
	r.NetTxMbps = s.Float()
	s.Lit(`}`)
}

// minItemBytes is a floor on the encoding of one VM or Node (141 and 214
// bytes with empty strings and one-digit numbers), minSpecBytes on that of
// one VMSpec (72 bytes). They bound the capacity a scanner reserves for a
// body that turns out not to be what it expects.
const (
	minItemBytes = 128
	minSpecBytes = 64
)

// reserve makes the slice for the items of a body of ID-keyed items.
func reserve[T any](data []byte, minBytes int) []T {
	return make([]T, 0, min(bytes.Count(data, itemStart), len(data)/minBytes+1))
}

// scanList reads what appendList writes, each item's ID into its id field
// and the rest of it through item; the newline is optional, as for
// encoding/json.
func scanList[T any](data []byte, item func(*bodyScanner, *T), id func(*T) *string) (items []T, total, nextOffset int, ok bool) {
	s := bodyScanner{Scanner: wirejson.Scanner{Data: data}}
	s.Lit(`{"items":`)
	switch {
	case s.TryLit(`null`):
	case s.TryLit(`[]`):
		items = []T{}
	default:
		s.Lit(`[`)
		items = reserve[T](data, minItemBytes)
		for !s.Failed() {
			var zero T
			items = append(items, zero)
			s.id()
			item(&s, &items[len(items)-1])
			if !s.TryLit(`,`) {
				break
			}
		}
		s.Lit(`]`)
	}
	s.Lit(`,"total":`)
	total = s.Int()
	if s.TryLit(`,"nextOffset":`) {
		nextOffset = s.Int()
	}
	s.Lit(`}`)
	s.TryLit("\n")
	if ok = s.Done(); ok {
		setIDs(&s, items, id)
	}
	return items, total, nextOffset, ok
}

func scanVMList(data []byte) (l VMList, ok bool) {
	l.Items, l.Total, l.NextOffset, ok = scanList(data, (*bodyScanner).vm, func(v *VM) *string { return &v.ID })
	return l, ok
}

func scanNodeList(data []byte) (l NodeList, ok bool) {
	l.Items, l.Total, l.NextOffset, ok = scanList(data, (*bodyScanner).node, func(n *Node) *string { return &n.ID })
	return l, ok
}

// vm reads a VM after its ID.
func (s *bodyScanner) vm(v *VM) {
	s.Lit(`,"requested":`)
	s.resources(&v.Requested)
	s.Lit(`,"state":`)
	v.State = s.enums.get(s.Str())
	if s.TryLit(`,"node":`) {
		v.Node = s.hosts.get(s.Str())
	}
	s.Lit(`,"used":`)
	s.resources(&v.Used)
	if s.TryLit(`,"traceId":`) {
		v.TraceID = string(s.Str())
	}
	s.Lit(`}`)
}

// node reads a node after its ID.
func (s *bodyScanner) node(n *Node) {
	s.Lit(`,"capacity":`)
	s.resources(&n.Capacity)
	s.Lit(`,"power":`)
	n.Power = s.enums.get(s.Str())
	s.Lit(`,"used":`)
	s.resources(&n.Used)
	s.Lit(`,"reserved":`)
	s.resources(&n.Reserved)
	if s.TryLit(`,"vms":`) {
		n.VMs = wirejson.ScanStrings[string](&s.Scanner)
	}
	s.Lit(`,"idle":`)
	n.Idle = s.Bool()
	s.Lit(`}`)
}

// scanSubmitRequest reads what appendSubmitRequest writes; the newline is
// optional. Its loop is scanList's, without the function value through which
// the scanner would escape to the heap.
func scanSubmitRequest(data []byte) (r SubmitRequest, ok bool) {
	s := bodyScanner{Scanner: wirejson.Scanner{Data: data}}
	s.Lit(`{"vms":`)
	switch {
	case s.TryLit(`null`):
	case s.TryLit(`[]`):
		r.VMs = []VMSpec{}
	default:
		s.Lit(`[`)
		r.VMs = reserve[VMSpec](data, minSpecBytes)
		for !s.Failed() {
			r.VMs = append(r.VMs, VMSpec{})
			s.id()
			s.vmSpec(&r.VMs[len(r.VMs)-1])
			if !s.TryLit(`,`) {
				break
			}
		}
		s.Lit(`]`)
	}
	s.Lit(`}`)
	s.TryLit("\n")
	if !s.Done() {
		return SubmitRequest{}, false
	}
	setIDs(&s, r.VMs, func(v *VMSpec) *string { return &v.ID })
	return r, true
}

// vmSpec reads a VM spec after its ID.
func (s *bodyScanner) vmSpec(v *VMSpec) {
	s.Lit(`,"requested":`)
	s.resources(&v.Requested)
	if s.TryLit(`,"traceId":`) {
		v.TraceID = s.enums.get(s.Str())
	}
	s.Lit(`}`)
}

// scanSubmitResult reads what appendSubmitResult writes; the newline is optional.
func scanSubmitResult(data []byte) (r SubmitResult, ok bool) {
	s := bodyScanner{Scanner: wirejson.Scanner{Data: data}}
	s.Lit(`{"placed":`)
	if !s.TryLit(`null`) {
		if r.Placed, ok = s.placed(); !ok {
			return SubmitResult{}, false
		}
	}
	if s.TryLit(`,"unplaced":`) {
		r.Unplaced = wirejson.ScanStrings[string](&s.Scanner)
	}
	s.Lit(`}`)
	s.TryLit("\n")
	if !s.Done() {
		return SubmitResult{}, false
	}
	return r, true
}

// placed reads the map of VM ID to node ID, its keys ascending as
// json.Encoder writes them, so that none repeats. The VM IDs share one string
// and the node IDs are interned: besides the map's own allocations, a map
// costs one for the IDs and one per distinct node, however many VMs it
// places.
func (s *bodyScanner) placed() (map[string]string, bool) {
	s.Lit(`{`)
	if s.TryLit(`}`) {
		return map[string]string{}, true
	}
	// First pass: check the entries and the order of their keys, and count
	// them and the keys' bytes.
	var n, size, from, to int
	var prev []byte
	for !s.Failed() {
		start, end := s.StrSpan()
		key := s.Data[start:end]
		if n == 0 {
			from = start - 1
		} else if bytes.Compare(key, prev) <= 0 {
			return nil, false
		}
		prev, n, size = key, n+1, size+len(key)
		s.Lit(`:`)
		_, to = s.StrSpan()
		if !s.TryLit(`,`) {
			break
		}
	}
	s.Lit(`}`)
	if s.Failed() {
		return nil, false
	}
	// Second pass over the same entries: each key is copied to the end of the
	// shared text and sliced from there. The text never moves, having its
	// final capacity.
	p := wirejson.Scanner{Data: s.Data[from : to+1]}
	var text strings.Builder
	text.Grow(size)
	m := make(map[string]string, n)
	for range n {
		at := text.Len()
		text.Write(p.Str())
		p.Lit(`:`)
		m[text.String()[at:]] = s.hosts.get(p.Str())
		p.TryLit(`,`)
	}
	return m, true
}
