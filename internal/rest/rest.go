// Package rest is the HTTP transport for real (wall-clock) Snooze
// deployments, standing in for the paper's "Java RESTful web services"
// (Section II-A). Each snoozed process hosts its components on an in-process
// bus and exposes them through a Server; a Gateway registers remote peers as
// proxy addresses on the local bus, so component code is identical in
// simulation and deployment. Multicast groups work through static peer
// registration (AddPeer with group names) — the deployment analogue of
// joining a UDP multicast group.
//
// Every LC pushes a report to its GM each monitoring period and every manager
// heartbeats every LC, so the cost of the management plane is the cost of one
// message between processes. A Gateway therefore sends everything bound for
// one peer process (one base URL, however many addresses sit behind it) over
// one long-lived, full-duplex POST /deliver/stream (stream.go), the only
// route messages between processes take:
//
//   - Frames. Each message is a length-prefixed frame: a type byte, a call ID,
//     the from, to and kind names and the payload's JSON (protocol's codecs),
//     at most maxFrameBytes. The server answers every message frame with
//     one reply frame; replies match calls by ID, and one-way messages get an
//     empty acknowledgement, which is how the Gateway counts them. A one-way
//     message the server cannot deliver is answered with a text that begins
//     with its kind.
//   - FIFO and coalescing. One writer goroutine per stream drains a bounded
//     queue and writes each drained batch with one write and one flush, so
//     frames on a stream leave in order and a burst leaves together. The
//     server hands each frame to its bus without waiting for the handler.
//   - Overload. A full queue drops its oldest one-way frame; a queue of calls
//     only refuses the next call at once with a transport.ErrUnreachable
//     error the caller may retry. A broken stream fails its outstanding calls
//     at once. A stream is opened when a frame needs one, never in the
//     background.
//   - Closing. The server sends a close frame when its http.Server shuts
//     down and when the stream has been idle for streamIdle with no call
//     outstanding; the client then writes what it has queued, ends the
//     request body, and opens a new stream for later frames. Neither
//     Shutdown nor closing a server that waits for its handlers waits on a
//     stream longer than that.
//
// A peer that answers 404 on /deliver/stream is a snoozed from before the
// stream, which is not supported: each message to it fails as unreachable
// with an error naming the route, and counts as a forward error; the
// Gateway logs the first such failure of each peer. Otherwise it logs the
// first failed message of each kind per peer (a refused dial, or a one-way
// message the peer could not deliver), naming kind and destination, and one
// line per broken stream that failed messages. A Client makes one call per
// stream of one frame.
package rest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"snooze/internal/transport"
)

// Envelope is the JSON message of the per-message POST /deliver route,
// which no longer exists. The type stays only because the benchmark's
// tracer (bench/trace.go) compiles against it; it goes once ROADMAP item
// 7(c) drops it from the benchmark's API contract.
type Envelope struct {
	From    string          `json:"from"`
	To      string          `json:"to"`
	Kind    string          `json:"kind"`
	OneWay  bool            `json:"oneWay,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// maxFrameBytes caps a frame: large VM batches fit with room to spare,
// runaway or hostile frames do not.
const maxFrameBytes = 1 << 20

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

// Server exposes a local bus over HTTP.
type Server struct {
	bus     *transport.Bus
	timeout time.Duration

	mu      sync.Mutex
	streams map[*serverStream]struct{}
	servers map[*http.Server]bool // hooked for shutdown; true once it began
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
	mux.HandleFunc(streamPath, s.handleStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, "{\"payload\":\"ok\"}\n")
	})
	return mux
}

// ---------------------------------------------------------------------------
// Gateway (outbound proxy)
// ---------------------------------------------------------------------------

// newTransport returns an HTTP transport of its own, counting the
// connections it dials in dials if that is not nil. A response header slower
// than timeout fails.
func newTransport(timeout time.Duration, dials *atomic.Uint64) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ResponseHeaderTimeout = timeout
	if dials != nil {
		dial := tr.DialContext
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dial(ctx, network, addr)
		}
	}
	return tr
}

// Gateway bridges the local bus to remote processes: every registered peer
// address gets a proxy handler on the local bus that forwards to the peer's
// process over one stream, shared by every address at the same base URL.
type Gateway struct {
	bus    *transport.Bus
	stream *http.Client // no whole-request timeout: a stream lives on

	forwards      atomic.Uint64
	forwardErrors atomic.Uint64
	dials         atomic.Uint64
	dropped       atomic.Uint64
	brokenCalls   atomic.Uint64

	queueLimit int // frames a stream queues before it drops or refuses
	closed     atomic.Bool
	logf       func(format string, args ...any) // log.Printf

	mu      sync.Mutex
	peers   map[transport.Address]string // addr -> base URL
	conns   map[string]*peerConn         // base URL -> its process
	streams map[*clientStream]struct{}   // open or ending
}

// NewGateway creates a gateway on the local bus; timeout bounds the wait for
// a stream's response header. Calls through a stream are bounded by their
// Bus.Call timeout alone.
func NewGateway(bus *transport.Bus, timeout time.Duration) *Gateway {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	g := &Gateway{
		bus:        bus,
		queueLimit: streamQueue,
		logf:       log.Printf,
		peers:      make(map[transport.Address]string),
		conns:      make(map[string]*peerConn),
		streams:    make(map[*clientStream]struct{}),
	}
	g.stream = &http.Client{Transport: newTransport(timeout, &g.dials)}
	return g
}

// Close ends the gateway: its streams close at once, failing whatever they
// hold, and later messages to its peers fail as unreachable. It returns once
// the streams' goroutines have. snoozed calls it on shutdown.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed.Store(true)
	open := make([]*clientStream, 0, len(g.streams))
	for st := range g.streams {
		open = append(open, st)
	}
	g.mu.Unlock()
	for _, st := range open {
		st.fail(errClosed)
		st.wg.Wait()
	}
}

// forget drops an ended stream from the gateway's set.
func (g *Gateway) forget(st *clientStream) {
	g.mu.Lock()
	delete(g.streams, st)
	g.mu.Unlock()
}

// GatewayStats counts a gateway's outbound traffic since it was created.
type GatewayStats struct {
	// Forwards is the number of messages whose outcome is known, whatever it
	// is: answered or acknowledged by the peer, or failed here.
	Forwards uint64
	// ForwardErrors is how many of them did not reach a remote bus handler:
	// the transport failed, the peer has no stream route, the stream broke
	// or had no room, or the remote server refused the message (unknown
	// destination, undecodable frame). One-way messages report this nowhere
	// else.
	ForwardErrors uint64
	// Dials is the number of connections opened.
	Dials uint64
	// Dropped is how many one-way messages a full stream queue dropped.
	Dropped uint64
	// BrokenCalls is how many calls failed because their stream broke or
	// ended before the reply came.
	BrokenCalls uint64
}

// Stats returns the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	return GatewayStats{
		Forwards:      g.forwards.Load(),
		ForwardErrors: g.forwardErrors.Load(),
		Dials:         g.dials.Load(),
		Dropped:       g.dropped.Load(),
		BrokenCalls:   g.brokenCalls.Load(),
	}
}

// failed counts n messages that reached no remote handler.
func (g *Gateway) failed(n int) {
	g.forwardErrors.Add(uint64(n))
	g.forwards.Add(uint64(n))
}

// overflow refuses a message a full stream queue has no room for.
func (g *Gateway) overflow(req *transport.Request) {
	g.failed(1)
	if req.OneWay() {
		g.dropped.Add(1)
		return
	}
	req.RespondErr(fmt.Errorf("%w: %s: send queue full", transport.ErrUnreachable, req.To))
}

// AddPeer registers a remote component: addr becomes routable on the local
// bus (forwarded to baseURL), and the proxy joins the given multicast groups
// on the remote component's behalf.
func (g *Gateway) AddPeer(addr transport.Address, baseURL string, groups ...string) {
	g.mu.Lock()
	g.peers[addr] = baseURL
	pc := g.conns[baseURL]
	if pc == nil {
		pc = &peerConn{g: g, url: baseURL}
		g.conns[baseURL] = pc
	}
	g.mu.Unlock()
	g.bus.Register(addr, func(req *transport.Request) { g.forward(pc, req) })
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

// forward queues req on its peer's stream, opening one if the peer has none;
// the stream's reader answers it. It does not wait for the network.
func (g *Gateway) forward(pc *peerConn, req *transport.Request) {
	for {
		st, err := pc.stream()
		if err != nil {
			g.failed(1)
			switch {
			case errors.Is(err, errNoStream):
				if pc.noStreamLogged.CompareAndSwap(false, true) {
					g.logf("rest: peer %s has no %s route: a snoozed without the stream is not supported, every message to it fails", pc.url, streamPath)
				}
			case !errors.Is(err, errClosed):
				pc.lost(req.Kind, fmt.Sprintf("%s: %v", req.To, err))
			}
			// The remote process is not answering: same meaning as an
			// unregistered bus address, so keep the sentinel for callers.
			req.RespondErr(fmt.Errorf("%w: %s: %w", transport.ErrUnreachable, req.To, err))
			return
		}
		if st.enqueue(req) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Thin client
// ---------------------------------------------------------------------------

// Client performs one-shot protocol calls against a remote snoozed process,
// each over a stream that carries that one call.
type Client struct {
	http *http.Client
}

// NewClient creates a client; timeout bounds a whole call.
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{http: &http.Client{Transport: newTransport(timeout, nil), Timeout: timeout}}
}

// Call sends kind+payload to the component addr hosted at baseURL and
// decodes the typed reply.
func (c *Client) Call(baseURL string, addr, kind string, payload any) (any, error) {
	req := transport.Request{Message: transport.Message{From: "cli", To: transport.Address(addr), Kind: kind, Payload: payload}}
	body, err := appendMessage(nil, 1, &req)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(baseURL+streamPath, streamContentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, refused(baseURL, resp)
	}
	fr := frameReader{r: bufio.NewReader(resp.Body)}
	for {
		b, err := fr.next()
		var f frame
		if err == nil {
			f, err = parseFrame(b)
		}
		switch {
		case err == io.EOF:
			err = errStreamEnded
		case err != nil:
		case f.typ == frameClose:
			continue
		case f.id != 1 || f.typ == frameCall || f.typ == frameOneWay:
			err = errFrameFormat
		}
		if err != nil {
			return nil, fmt.Errorf("rest: %s%s: %w", baseURL, streamPath, err)
		}
		// The response ends right after the answer: read that end, so that
		// the connection can carry the next call.
		_, _ = io.Copy(io.Discard, io.LimitReader(fr.r, 64))
		return answerOf(kind, &f)
	}
}
