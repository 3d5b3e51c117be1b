package apiv1

import (
	"bytes"
	"encoding/json"

	"snooze/internal/wirejson"
)

// Body codecs. A /v1 body is whatever encoding/json makes of its DTO, for
// every route. The two list bodies that grow with the deployment — VMList and
// NodeList, what a dashboard polls — also have an append encoder and a strict
// scanning decoder that produce and accept the same bytes without reflection
// (field order and names from the struct tags, omitempty, null for a nil
// slice, encoding/json's float and string formatting, json.Encoder's trailing
// newline). Which path runs is decided by the body's type and shape, never by
// an option: the encoder meets a value it does not cover (a NaN) or the
// decoder meets input that is not exactly what the encoder emits (other key
// order, whitespace, escapes, unknown fields, another JSON library), and the
// body goes through encoding/json like those of the other routes. So servers
// and clients of either kind interoperate, and decoded values never alias the
// input. TestAppendListMatchesEncoder, FuzzScanVMList and FuzzScanNodeList
// hold the two paths against each other.

// AppendBody appends to dst the bytes json.NewEncoder(w).Encode(body) writes,
// and returns its error with dst unchanged.
func AppendBody(dst []byte, body any) ([]byte, error) {
	e := listEncoder{wirejson.Encoder{Buf: dst}}
	switch v := body.(type) {
	case VMList:
		if appendList(&e, v.Items, (*listEncoder).vm, v.Total, v.NextOffset) {
			return e.Buf, nil
		}
	case NodeList:
		if appendList(&e, v.Items, (*listEncoder).node, v.Total, v.NextOffset) {
			return e.Buf, nil
		}
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
	switch v := dst.(type) {
	case *VMList:
		if l, ok := scanVMList(data); ok {
			*v = l
			return nil
		}
	case *NodeList:
		if l, ok := scanNodeList(data); ok {
			*v = l
			return nil
		}
	}
	return json.Unmarshal(data, dst)
}

type listEncoder struct{ wirejson.Encoder }

func (e *listEncoder) resources(r *Resources) {
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
// reports whether Buf holds the encoding (false: a non-finite float).
func appendList[T any](e *listEncoder, items []T, item func(*listEncoder, *T), total, nextOffset int) bool {
	e.Lit(`{"items":`)
	if items == nil {
		e.Lit(`null`)
	} else {
		e.Lit(`[`)
		for i := range items {
			if i > 0 {
				e.Lit(`,`)
			}
			item(e, &items[i])
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
	return !e.NonFinite
}

func (e *listEncoder) vm(v *VM) {
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

func (e *listEncoder) node(n *Node) {
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

// listScanner decodes a list body. The strings that repeat from item to item
// — a VM's state and hosting node, a node's power state — are shared between
// the items instead of copied per item, so a page costs about one allocation
// per item (its ID).
type listScanner struct {
	wirejson.Scanner
	enums, hosts interner
}

// interner returns one string per distinct token.
type interner struct {
	last string
	seen map[string]string
}

func (in *interner) get(tok []byte) string {
	if string(tok) == in.last {
		return in.last
	}
	s, ok := in.seen[string(tok)]
	if !ok {
		if in.seen == nil {
			in.seen = make(map[string]string)
		}
		s = string(tok)
		in.seen[s] = s
	}
	in.last = s
	return s
}

func (s *listScanner) resources(r *Resources) {
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
// bytes with empty strings and one-digit numbers). It bounds the capacity a
// scanner reserves for a body that turns out not to be a list.
const minItemBytes = 128

// scanList reads what appendList writes, the items through item; the newline
// is optional, as for encoding/json.
func scanList[T any](data []byte, item func(*listScanner, *T)) (items []T, total, nextOffset int, ok bool) {
	s := listScanner{Scanner: wirejson.Scanner{Data: data}}
	s.Lit(`{"items":`)
	switch {
	case s.TryLit(`null`):
	case s.TryLit(`[]`):
		items = []T{}
	default:
		s.Lit(`[`)
		// Each item starts with the `{"id":` that, quotes being unescaped,
		// cannot occur inside a string: the count is the number of items.
		items = make([]T, 0, min(bytes.Count(data, []byte(`{"id":`)), len(data)/minItemBytes+1))
		for !s.Failed() {
			var zero T
			items = append(items, zero)
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
	return items, total, nextOffset, s.Done()
}

func scanVMList(data []byte) (l VMList, ok bool) {
	l.Items, l.Total, l.NextOffset, ok = scanList(data, (*listScanner).vm)
	return l, ok
}

func scanNodeList(data []byte) (l NodeList, ok bool) {
	l.Items, l.Total, l.NextOffset, ok = scanList(data, (*listScanner).node)
	return l, ok
}

func (s *listScanner) vm(v *VM) {
	s.Lit(`{"id":`)
	v.ID = string(s.Str())
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

func (s *listScanner) node(n *Node) {
	s.Lit(`{"id":`)
	n.ID = string(s.Str())
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
