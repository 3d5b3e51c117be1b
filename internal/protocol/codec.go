package protocol

import (
	"encoding/json"
	"fmt"
)

// The REST transport (internal/rest) carries payloads as JSON tagged with
// the message kind. AppendRequest / AppendReply write a payload's JSON and
// DecodeRequest / DecodeReply rebuild the concrete typed values the component
// handlers expect, so component code is oblivious to whether a message
// travelled in-process or over HTTP.
//
// The wire format is whatever encoding/json makes of the message structs, for
// every kind. Four kinds are all the traffic a deployment's processes
// exchange at rest — gm.monitor (every LC, every monitoring period),
// gm.heartbeat and gl.heartbeat (every manager to every LC) and lc.start-vm
// with its reply (every placement) — and those have hand-written codecs
// (codec_append.go, codec_scan.go, built from internal/wirejson's primitives)
// that produce and accept the same bytes without reflection. Which path runs is decided by the message kind and the
// shape of the input, never by an option: an encoder meets a value it does
// not cover (a NaN) or a decoder meets input that is not exactly what the
// encoders emit (other key order, whitespace, escapes, unknown fields, a
// peer's different JSON library), and the message goes through encoding/json
// like the other twenty-odd kinds. Decoded values never alias the input.

// AppendRequest appends the JSON encoding of a request payload of the given
// kind to dst: the bytes json.Marshal(payload) returns, and its error.
func AppendRequest(dst []byte, kind string, payload any) ([]byte, error) {
	e := appendTo(dst)
	switch kind {
	case KindMonitor:
		if v, ok := payload.(MonitorReport); ok && e.monitorReport(&v) {
			return e.Buf, nil
		}
	case KindGMHeartbeat:
		if v, ok := payload.(GMHeartbeat); ok {
			e.gmHeartbeat(&v)
			return e.Buf, nil
		}
	case KindGLHeartbeat:
		if v, ok := payload.(GLHeartbeat); ok {
			e.glHeartbeat(&v)
			return e.Buf, nil
		}
	case KindStartVM:
		if v, ok := payload.(StartVMRequest); ok && e.startVMRequest(&v) {
			return e.Buf, nil
		}
	}
	return appendGeneric(dst, payload)
}

// AppendReply is AppendRequest for a response payload.
func AppendReply(dst []byte, kind string, payload any) ([]byte, error) {
	if v, ok := payload.(StartVMResponse); ok && kind == KindStartVM {
		e := appendTo(dst)
		e.startVMResponse(&v)
		return e.Buf, nil
	}
	return appendGeneric(dst, payload)
}

func appendGeneric(dst []byte, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// DecodeRequest decodes a request payload for the given message kind.
func DecodeRequest(kind string, data json.RawMessage) (any, error) {
	switch kind {
	case KindGLHeartbeat:
		if v, ok := scanGLHeartbeat(data); ok {
			return v, nil
		}
		return decode[GLHeartbeat](data)
	case KindGMHeartbeat:
		if v, ok := scanGMHeartbeat(data); ok {
			return v, nil
		}
		return decode[GMHeartbeat](data)
	case KindGMJoin:
		return decode[GMJoinRequest](data)
	case KindSummary:
		return decode[SummaryUpdate](data)
	case KindLCAssign:
		return decode[LCAssignRequest](data)
	case KindLCJoin:
		return decode[LCJoinRequest](data)
	case KindMonitor:
		if v, ok := scanMonitorReport(data); ok {
			return v, nil
		}
		return decode[MonitorReport](data)
	case KindSubmit:
		return decode[SubmitRequest](data)
	case KindPlace:
		return decode[PlaceRequest](data)
	case KindStartVM:
		if v, ok := scanStartVMRequest(data); ok {
			return v, nil
		}
		return decode[StartVMRequest](data)
	case KindStopVM:
		return decode[StopVMRequest](data)
	case KindMigrateVM:
		return decode[MigrateVMRequest](data)
	case KindShed:
		return decode[ShedRequest](data)
	case KindTopology:
		return decode[TopologyRequest](data)
	case KindConsolidation:
		return decode[ConsolidationCtlRequest](data)
	case KindInventory:
		return decode[InventoryRequest](data)
	case KindSuspendHost, KindWakeHost, KindGLQuery, KindRejoin:
		return noPayload(kind, data)
	default:
		return nil, fmt.Errorf("protocol: unknown request kind %q", kind)
	}
}

// DecodeReply decodes a response payload for the given message kind.
func DecodeReply(kind string, data json.RawMessage) (any, error) {
	switch kind {
	case KindGMJoin:
		return decode[GMJoinResponse](data)
	case KindLCAssign:
		return decode[LCAssignResponse](data)
	case KindLCJoin:
		return decode[LCJoinResponse](data)
	case KindSubmit:
		return decode[SubmitResponse](data)
	case KindPlace:
		return decode[PlaceResponse](data)
	case KindStartVM:
		if v, ok := scanStartVMResponse(data); ok {
			return v, nil
		}
		return decode[StartVMResponse](data)
	case KindMigrateVM:
		return decode[MigrateVMResponse](data)
	case KindGLQuery:
		return decode[GLQueryResponse](data)
	case KindTopology:
		return decode[TopologyResponse](data)
	case KindShed:
		return decode[ShedResponse](data)
	case KindInventory:
		return decode[InventoryResponse](data)
	case KindConsolidation:
		return decode[ConsolidationCtlResponse](data)
	case KindGLHeartbeat, KindGMHeartbeat, KindSummary, KindMonitor,
		KindStopVM, KindSuspendHost, KindWakeHost, KindRejoin:
		return noPayload(kind, data)
	default:
		return nil, fmt.Errorf("protocol: unknown reply kind %q", kind)
	}
}

// noPayload is the decoder of kinds whose payload carries nothing: whatever
// JSON value the sender put there is accepted, anything that is not JSON is
// refused like a malformed payload of any other kind.
func noPayload(kind string, data json.RawMessage) (any, error) {
	if len(data) != 0 && !json.Valid(data) {
		return nil, fmt.Errorf("protocol: %s: payload is not JSON", kind)
	}
	return struct{}{}, nil
}

// decode is the encoding/json path: the only decoder of most kinds, and the
// reference the hand-written ones are tested against.
func decode[T any](data json.RawMessage) (any, error) {
	var v T
	if len(data) == 0 {
		return v, nil
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}
