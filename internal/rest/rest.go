// Package rest is the HTTP transport for real (wall-clock) Snooze
// deployments, standing in for the paper's "Java RESTful web services"
// (Section II-A). Each snoozed process hosts its components on an in-process
// bus and exposes them through a Server; a Gateway registers remote peers as
// proxy addresses on the local bus, so component code is identical in
// simulation and deployment.
//
// Wire format: POST /deliver with an Envelope; the reply carries the JSON
// response payload. One-way messages return 202 with no body. Multicast
// groups work through static peer registration (AddPeer with group names) —
// the deployment analogue of joining a UDP multicast group.
//
// Every LC pushes a report to its GM each monitoring period and every manager
// heartbeats every LC, so the cost of the management plane is the cost of one
// /deliver, and the hop is built to pay for each message once: a Gateway
// keeps its own pool of connections per peer process instead of dialling per
// burst, appendEnvelope writes header and payload into a pooled buffer in one
// pass, and the Server reads the body into a pooled buffer and splits the
// envelope without a JSON pass of its own, leaving the payload to
// protocol.DecodeRequest. The bytes are those encoding/json produces for
// Envelope, and anything that is not exactly that shape is decoded by
// encoding/json, so peers of other versions or other JSON libraries
// interoperate.
package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/transport"
	"snooze/internal/wirejson"
)

// Envelope is the on-wire message frame.
type Envelope struct {
	From    string          `json:"from"`
	To      string          `json:"to"`
	Kind    string          `json:"kind"`
	OneWay  bool            `json:"oneWay,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// replyFrame is the on-wire response frame.
type replyFrame struct {
	Payload json.RawMessage `json:"payload,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// maxEnvelopeBytes caps /deliver request bodies: large VM batches fit with
// room to spare, runaway or hostile bodies do not.
const maxEnvelopeBytes = 1 << 20

// Frames are built in and read into pooled buffers. maxPooledBuffer keeps the
// rare large frame (an inventory, a large VM batch) from pinning its
// buffer in the pool for the monitor reports that follow.
const maxPooledBuffer = 64 << 10

var bufferPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

// putBuffer returns a buffer whose contents nothing references any more.
func putBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		*b = (*b)[:0]
		bufferPool.Put(b)
	}
}

// appendEnvelope appends the frame of one message to dst: the bytes
// json.Marshal returns for the Envelope holding payload's encoding.
func appendEnvelope(dst []byte, from, to, kind string, oneWay bool, payload any) ([]byte, error) {
	dst = append(dst, `{"from":`...)
	dst = wirejson.AppendString(dst, from)
	dst = append(dst, `,"to":`...)
	dst = wirejson.AppendString(dst, to)
	dst = append(dst, `,"kind":`...)
	dst = wirejson.AppendString(dst, kind)
	if oneWay {
		dst = append(dst, `,"oneWay":true`...)
	}
	dst = append(dst, `,"payload":`...)
	dst, err := protocol.AppendRequest(dst, kind, payload)
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// splitEnvelope parses a frame of exactly the shape appendEnvelope emits —
// the four keys in order, no whitespace, header strings of printable ASCII
// without escapes — into env, whose Payload then aliases body from the
// payload's first byte to the frame's closing brace. It does not check that
// those bytes are one JSON value; the payload's decoder does. Any other frame
// is reported as !ok, for encoding/json.
func splitEnvelope(body []byte, env *Envelope) bool {
	rest := body
	lit := func(l string) bool {
		if len(rest) < len(l) || string(rest[:len(l)]) != l {
			return false
		}
		rest = rest[len(l):]
		return true
	}
	str := func(dst *string) bool {
		if len(rest) == 0 || rest[0] != '"' {
			return false
		}
		for i := 1; i < len(rest); i++ {
			switch c := rest[i]; {
			case c == '"':
				*dst, rest = string(rest[1:i]), rest[i+1:]
				return true
			case c < 0x20 || c >= 0x7f || c == '\\':
				return false
			}
		}
		return false
	}
	if !(lit(`{"from":`) && str(&env.From) && lit(`,"to":`) && str(&env.To) && lit(`,"kind":`) && str(&env.Kind)) {
		return false
	}
	env.OneWay = lit(`,"oneWay":true`)
	if !lit(`,"payload":`) || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return false
	}
	env.Payload = rest[:len(rest)-1]
	// encoding/json trims the white space around a raw value.
	return !isSpace(env.Payload[0]) && !isSpace(env.Payload[len(env.Payload)-1])
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// decodeDelivery parses a /deliver body into the envelope's header and its
// typed payload, neither of which aliases body (Envelope.Payload is left
// empty). A frame of the local encoder's shape whose payload decodes takes
// one pass; whatever fails that pass in any way is decoded again by
// encoding/json, which alone decides what is an error.
func decodeDelivery(body []byte) (Envelope, any, error) {
	var env Envelope
	if splitEnvelope(body, &env) {
		if payload, err := protocol.DecodeRequest(env.Kind, env.Payload); err == nil {
			env.Payload = nil
			return env, payload, nil
		}
	}
	return decodeDeliveryJSON(body)
}

func decodeDeliveryJSON(body []byte) (Envelope, any, error) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return Envelope{}, nil, fmt.Errorf("bad envelope: %w", err)
	}
	payload, err := protocol.DecodeRequest(env.Kind, env.Payload)
	env.Payload = nil
	return env, payload, err
}

// readBody appends all of r to dst.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Server exposes a local bus over HTTP.
type Server struct {
	bus     *transport.Bus
	timeout time.Duration
}

// NewServer creates a server delivering into bus; timeout bounds
// request-response calls.
func NewServer(bus *transport.Bus, timeout time.Duration) *Server {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Server{bus: bus, timeout: timeout}
}

// Handler returns the HTTP handler (mount at /).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/deliver", s.handleDeliver)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeFrame(w, http.StatusOK, replyFrame{Payload: json.RawMessage(`"ok"`)})
	})
	return mux
}

// writeFrame sends a reply frame with the given status; every /deliver
// response with a body is JSON, success or failure.
func writeFrame(w http.ResponseWriter, status int, frame replyFrame) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(frame)
}

func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFrame(w, http.StatusMethodNotAllowed, replyFrame{Error: "POST only"})
		return
	}
	buf := getBuffer()
	body, err := readBody(*buf, http.MaxBytesReader(w, r.Body, maxEnvelopeBytes))
	*buf = body
	if err != nil {
		putBuffer(buf)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeFrame(w, status, replyFrame{Error: "bad envelope: " + err.Error()})
		return
	}
	env, payload, err := decodeDelivery(body)
	putBuffer(buf)
	if err != nil {
		writeFrame(w, http.StatusBadRequest, replyFrame{Error: err.Error()})
		return
	}
	if env.OneWay {
		// An unknown destination is the caller's addressing mistake: report
		// it as 404 instead of silently accepting the message.
		if err := s.bus.Send(transport.Address(env.From), transport.Address(env.To), env.Kind, payload); errors.Is(err, transport.ErrUnreachable) {
			writeFrame(w, http.StatusNotFound, replyFrame{Error: err.Error()})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	type outcome struct {
		reply any
		err   error
	}
	ch := make(chan outcome, 1)
	s.bus.Call(transport.Address(env.From), transport.Address(env.To), env.Kind, payload, s.timeout,
		func(reply any, err error) { ch <- outcome{reply, err} })
	out := <-ch
	if out.err != nil {
		status := http.StatusOK // component-level error: transport succeeded
		if errors.Is(out.err, transport.ErrUnreachable) {
			status = http.StatusNotFound
		}
		writeFrame(w, status, replyFrame{Error: out.err.Error()})
		return
	}
	// The success frame, as writeFrame's encoder would write it.
	buf = getBuffer()
	defer putBuffer(buf)
	*buf = append(*buf, `{"payload":`...)
	if *buf, err = protocol.AppendReply(*buf, env.Kind, out.reply); err != nil {
		writeFrame(w, http.StatusOK, replyFrame{Error: "encode reply: " + err.Error()})
		return
	}
	*buf = append(*buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a client that has gone away is its own problem
}

// ---------------------------------------------------------------------------
// Gateway (outbound proxy)
// ---------------------------------------------------------------------------

// idleConnsPerPeer is how many idle connections a Gateway or Client keeps per
// remote process. A control process forwards a heartbeat to every LC of a
// node process at once, and several managers heartbeat in the same instant;
// net/http's default of 2 closes the rest of such a burst and dials them again
// for the next one.
const idleConnsPerPeer = 16

// newHTTPClient returns a client with a connection pool of its own, counting
// the connections it dials in dials if that is not nil.
func newHTTPClient(timeout time.Duration, dials *atomic.Uint64) *http.Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no limit across peers: the per-peer limit bounds the pool
	tr.MaxIdleConnsPerHost = idleConnsPerPeer
	if dials != nil {
		dial := tr.DialContext
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dial(ctx, network, addr)
		}
	}
	return &http.Client{Transport: tr, Timeout: timeout}
}

// finish closes a response body so that its connection can be used again:
// the transport only takes back a connection whose body was read to the end,
// and an error frame nobody wanted or a frame's trailing newline is not. The
// transport may read the request's frame until then, so its buffer goes back
// to the pool after finish and not before.
func finish(resp *http.Response) {
	if resp.ContentLength != 0 {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	resp.Body.Close()
}

// Gateway bridges the local bus to remote processes: every registered peer
// address gets a proxy handler on the local bus that forwards over HTTP.
type Gateway struct {
	bus    *transport.Bus
	client *http.Client

	forwards      atomic.Uint64
	forwardErrors atomic.Uint64
	dials         atomic.Uint64

	mu    sync.Mutex
	peers map[transport.Address]string // addr -> base URL
}

// NewGateway creates a gateway on the local bus.
func NewGateway(bus *transport.Bus, timeout time.Duration) *Gateway {
	g := &Gateway{bus: bus, peers: make(map[transport.Address]string)}
	g.client = newHTTPClient(timeout, &g.dials)
	return g
}

// Close closes the gateway's idle connections; call it once the process stops
// forwarding. (Connections whose remote end has closed go away on their own.)
func (g *Gateway) Close() { g.client.CloseIdleConnections() }

// GatewayStats counts a gateway's outbound traffic since it was created.
type GatewayStats struct {
	// Forwards is the number of messages whose HTTP exchange has finished,
	// whatever its outcome.
	Forwards uint64
	// ForwardErrors is how many of them did not reach a remote bus handler:
	// the transport failed or the remote server answered outside 2xx (unknown
	// destination, refused frame). One-way messages report this nowhere else.
	ForwardErrors uint64
	// Dials is the number of connections opened.
	Dials uint64
}

// Stats returns the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	return GatewayStats{
		Forwards:      g.forwards.Load(),
		ForwardErrors: g.forwardErrors.Load(),
		Dials:         g.dials.Load(),
	}
}

// AddPeer registers a remote component: addr becomes routable on the local
// bus (forwarded to baseURL), and the proxy joins the given multicast groups
// on the remote component's behalf.
func (g *Gateway) AddPeer(addr transport.Address, baseURL string, groups ...string) {
	g.mu.Lock()
	g.peers[addr] = baseURL
	g.mu.Unlock()
	deliverURL := baseURL + "/deliver"
	g.bus.Register(addr, func(req *transport.Request) { g.forward(deliverURL, req) })
	for _, grp := range groups {
		g.bus.JoinGroup(grp, addr)
	}
}

// RemovePeer drops a remote registration.
func (g *Gateway) RemovePeer(addr transport.Address) {
	g.mu.Lock()
	delete(g.peers, addr)
	g.mu.Unlock()
	g.bus.Unregister(addr)
}

// Peers returns the number of registered peers.
func (g *Gateway) Peers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.peers)
}

func (g *Gateway) forward(deliverURL string, req *transport.Request) {
	buf := getBuffer()
	frame, err := appendEnvelope(*buf, string(req.From), string(req.To), req.Kind, req.OneWay(), req.Payload)
	*buf = frame
	if err != nil {
		putBuffer(buf)
		req.RespondErr(err)
		return
	}
	// Never block the bus executor: HTTP happens on its own goroutine.
	go func() {
		reply, err := g.exchange(deliverURL, buf, req)
		g.forwards.Add(1)
		if err != nil {
			req.RespondErr(err)
		} else if !req.OneWay() {
			req.Respond(reply)
		}
	}()
}

// exchange posts the frame in buf and reads the answer to req, counting the
// message as a forward error when it got no further than the remote server.
// The error returned is what the caller of a request-response message is
// told, which also covers errors the remote handler returned.
func (g *Gateway) exchange(deliverURL string, buf *[]byte, req *transport.Request) (any, error) {
	resp, err := g.client.Post(deliverURL, "application/json", bytes.NewReader(*buf))
	if err != nil {
		g.forwardErrors.Add(1)
		// The transport may not be done with the frame: the buffer is dropped.
		// The remote process itself is not answering: same meaning as an
		// unregistered bus address, so keep the sentinel for callers.
		return nil, fmt.Errorf("%w: %s: %v", transport.ErrUnreachable, req.To, err)
	}
	defer putBuffer(buf)
	defer finish(resp)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		g.forwardErrors.Add(1)
	}
	if req.OneWay() {
		return nil, nil
	}
	frame, err := decodeFrame(resp)
	if err != nil {
		return nil, err
	}
	if frame.Error != "" {
		// A 404 frame is the server's "destination unreachable" marker;
		// re-type it so errors.Is works across the HTTP hop.
		if resp.StatusCode == http.StatusNotFound {
			return nil, fmt.Errorf("%w: %s",
				transport.ErrUnreachable,
				strings.TrimPrefix(frame.Error, transport.ErrUnreachable.Error()+": "))
		}
		return nil, errors.New(frame.Error)
	}
	return protocol.DecodeReply(req.Kind, frame.Payload)
}

// ---------------------------------------------------------------------------
// Thin client (CLI side)
// ---------------------------------------------------------------------------

// Client performs one-shot protocol calls against a remote snoozed process —
// what the paper's command line interface does against the EP/GL services.
type Client struct {
	http *http.Client
}

// NewClient creates a CLI client.
func NewClient(timeout time.Duration) *Client {
	return &Client{http: newHTTPClient(timeout, nil)}
}

// Call sends kind+payload to the component addr hosted at baseURL and
// decodes the typed reply.
func (c *Client) Call(baseURL string, addr, kind string, payload any) (any, error) {
	buf := getBuffer()
	frame, err := appendEnvelope(*buf, "cli", addr, kind, false, payload)
	*buf = frame
	if err != nil {
		putBuffer(buf)
		return nil, err
	}
	resp, err := c.http.Post(baseURL+"/deliver", "application/json", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	defer putBuffer(buf)
	defer finish(resp)
	reply, err := decodeFrame(resp)
	if err != nil {
		return nil, err
	}
	if reply.Error != "" {
		return nil, errors.New(reply.Error)
	}
	return protocol.DecodeReply(kind, reply.Payload)
}

// decodeFrame reads a /deliver response: JSON frames carry the payload or a
// component/addressing error regardless of status code, a 202 carries
// nothing; anything else surfaces as a transport-level error.
func decodeFrame(resp *http.Response) (replyFrame, error) {
	var frame replyFrame
	if resp.StatusCode == http.StatusAccepted && resp.ContentLength == 0 {
		return frame, nil
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted ||
		strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(resp.Body).Decode(&frame); err != nil {
			return frame, fmt.Errorf("rest: %s: %w", resp.Status, err)
		}
		return frame, nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return frame, fmt.Errorf("rest: %s: %s", resp.Status, bytes.TrimSpace(data))
}
