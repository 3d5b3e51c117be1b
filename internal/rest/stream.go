package rest

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snooze/internal/protocol"
	"snooze/internal/transport"
)

// The stream: one long-lived, full-duplex POST /deliver/stream per peer
// process carries every message a Gateway sends there, as frames.
//
// A frame is a 4-byte big-endian length n, then n bytes: a type byte, a
// uvarint call ID, for the two message types the from, to and kind names
// (each a uvarint length and its bytes), and the body. The body of a message
// is the payload's JSON as protocol.AppendRequest writes it; the body of a
// reply is the reply's JSON (protocol.AppendReply) or an error text. n is at
// most maxEnvelopeBytes. The client sends message frames; the server answers
// every one of them with exactly one reply-type frame (ID 0 for a one-way
// message, which is how the client counts what reached a handler) and may
// send one close frame.
const (
	frameCall        byte = 1 // request-response message, call ID > 0
	frameOneWay      byte = 2 // one-way message, ID 0
	frameReply       byte = 3 // delivered; a call's body is its reply payload
	frameFailed      byte = 4 // the remote handler answered with this error text
	frameUnreachable byte = 5 // no handler at the destination (transport.ErrUnreachable)
	frameRefused     byte = 6 // the message did not decode; body is why
	frameClose       byte = 7 // server: finish the stream, later frames go to a new one
)

const (
	streamPath        = "/deliver/stream"
	streamContentType = "application/x-snooze-frames"

	// streamIdle is how long a server keeps a stream with nothing to read,
	// nothing to answer and no call outstanding before it sends the close
	// frame. It also bounds how long closing a server that waits for its
	// handlers (httptest.Server.Close) waits for an idle stream, so it stays
	// short: a peer quieter than this pays one dial per burst instead.
	streamIdle = 500 * time.Millisecond

	// streamQueue is how many frames wait for a stream's writer by default.
	streamQueue = 1024

	// maxNames bounds a server stream's table of interned names.
	maxNames = 4096
)

var (
	errFrameSize   = errors.New("rest: frame length out of range")
	errFrameFormat = errors.New("rest: malformed frame")
	errStreamEnded = errors.New("stream ended")
	errClosed      = errors.New("gateway closed")
	errFallback    = errors.New("peer has no stream route")
)

// closeFrame is the whole close frame.
var closeFrame = [...]byte{0, 0, 0, 2, frameClose, 0}

// beginFrame appends a frame's length placeholder, type and ID to dst.
func beginFrame(dst []byte, typ byte, id uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, typ)
	return binary.AppendUvarint(dst, id)
}

// endFrame writes the length of the frame that begins at dst[start]; it
// reports false, writing nothing, if the frame is over the cap.
func endFrame(dst []byte, start int) bool {
	n := len(dst) - start - 4
	if n > maxEnvelopeBytes {
		return false
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return true
}

func appendName(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendMessage appends req's frame to dst: a call frame with ID id, or a
// one-way frame if id is 0. On error dst is returned as it was.
func appendMessage(dst []byte, id uint64, req *transport.Request) ([]byte, error) {
	start, typ := len(dst), frameCall
	if id == 0 {
		typ = frameOneWay
	}
	dst = beginFrame(dst, typ, id)
	dst = appendName(dst, string(req.From))
	dst = appendName(dst, string(req.To))
	dst = appendName(dst, req.Kind)
	dst, err := protocol.AppendRequest(dst, req.Kind, req.Payload)
	if err == nil && !endFrame(dst, start) {
		err = fmt.Errorf("rest: %s frame of %d bytes is over the %d-byte cap", req.Kind, len(dst)-start-4, maxEnvelopeBytes)
	}
	if err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// frame is one parsed frame; its slices alias the bytes it was parsed from.
type frame struct {
	typ            byte
	id             uint64
	from, to, kind []byte
	body           []byte
}

// uvarint is binary.Uvarint refusing the overlong encodings AppendUvarint
// never writes, so that every frame has one encoding.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// parseFrame parses the n bytes after a frame's length.
func parseFrame(b []byte) (f frame, err error) {
	if len(b) == 0 {
		return f, errFrameFormat
	}
	f.typ = b[0]
	id, n := uvarint(b[1:])
	if n <= 0 {
		return f, errFrameFormat
	}
	f.id, b = id, b[1+n:]
	switch f.typ {
	case frameCall, frameOneWay:
		if (f.typ == frameCall) != (id != 0) {
			return f, errFrameFormat
		}
		for _, dst := range [...]*[]byte{&f.from, &f.to, &f.kind} {
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return f, errFrameFormat
			}
			*dst, b = b[n:n+int(l)], b[n+int(l):]
		}
	case frameReply, frameFailed, frameUnreachable, frameRefused:
	case frameClose:
		if id != 0 || len(b) != 0 {
			return f, errFrameFormat
		}
	default:
		return f, errFrameFormat
	}
	f.body = b
	return f, nil
}

// frameReader reads frames off a stream into one buffer of its own.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
	hdr [4]byte
}

// ready reports whether a whole frame is buffered, so next will not block.
func (fr *frameReader) ready() bool {
	if fr.r.Buffered() < 4 {
		return false
	}
	hdr, _ := fr.r.Peek(4)
	return uint64(fr.r.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// next returns the bytes of the next frame after its length, valid until the
// following call: io.EOF at a clean end between frames, another error for
// a truncated frame or a length outside 1..maxEnvelopeBytes.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n == 0 || n > maxEnvelopeBytes {
		return nil, errFrameSize
	}
	if n > cap(fr.buf) || cap(fr.buf) > maxPooledBuffer && n <= maxPooledBuffer {
		fr.buf = make([]byte, max(n, 4096)) // a large frame's buffer goes with the next small one
	}
	b := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

// serverStream is one inbound stream: the handler goroutine reads frames and
// hands each to the bus without waiting; acknowledgements and replies share
// the response under mu.
type serverStream struct {
	s     *Server
	srv   *http.Server // the server it arrived on, if known
	w     io.Writer
	flush func() error
	start time.Time
	last  atomic.Int64 // time from start to the last frame read or reply written
	idle  *time.Timer
	names map[string]string // interned from/to/kind, owned by the handler goroutine
	ack   []byte            // the handler goroutine's frame buffer

	mu       sync.Mutex
	answered sync.Cond // broadcast when calls falls to 0
	calls    int       // calls handed to the bus and not answered yet
	pending  bool      // written since the last flush
	goneAway bool      // the close frame is sent
	closed   bool      // the handler is returning, or the response failed: w is not touched again
}

// handleStream serves POST /deliver/stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeFrame(w, http.StatusMethodNotAllowed, replyFrame{Error: "POST only"})
		return
	}
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex() // HTTP/2 does not need it and says so
	w.Header().Set("Content-Type", streamContentType)
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	s.serveStream(w, rc.Flush, r.Body, srv)
}

// serveStream runs one stream until its body ends, then waits for the calls
// it handed to the bus, so that every frame read is answered.
func (s *Server) serveStream(w io.Writer, flush func() error, body io.Reader, srv *http.Server) {
	st := &serverStream{s: s, srv: srv, w: w, flush: flush, start: time.Now(), names: make(map[string]string)}
	st.answered.L = &st.mu
	if s.track(st) {
		st.goAway() // it arrived on a server that is shutting down
	}
	defer s.untrack(st)
	st.idle = time.AfterFunc(streamIdle, st.idleCheck)

	fr := frameReader{r: bufio.NewReader(body)}
	var err error
	for {
		if !fr.ready() {
			st.mu.Lock()
			st.flushLocked() // the acknowledgements so far, before a read that may block
			st.mu.Unlock()
		}
		var b []byte
		if b, err = fr.next(); err != nil {
			break
		}
		st.touch()
		var f frame
		if f, err = parseFrame(b); err == nil && f.typ != frameCall && f.typ != frameOneWay {
			err = errFrameFormat
		}
		if err != nil {
			break
		}
		st.deliver(&f)
	}
	st.mu.Lock()
	st.flushLocked()
	for err == io.EOF && st.calls > 0 {
		st.answered.Wait()
	}
	st.closed = true
	st.mu.Unlock()
	st.idle.Stop()
}

func (st *serverStream) touch() { st.last.Store(int64(time.Since(st.start))) }

// name returns b as a string, interned for the stream's life.
func (st *serverStream) name(b []byte) string {
	if s, ok := st.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(st.names) < maxNames {
		st.names[s] = s
	}
	return s
}

// deliver hands one message frame to the bus.
func (st *serverStream) deliver(f *frame) {
	kind := st.name(f.kind)
	payload, err := protocol.DecodeRequest(kind, f.body)
	if err != nil {
		st.answer(f.id, frameRefused, "bad frame: "+err.Error())
		return
	}
	from, to := transport.Address(st.name(f.from)), transport.Address(st.name(f.to))
	if f.typ == frameOneWay {
		// An unknown destination is the caller's addressing mistake: it is
		// told, as /deliver answers 404.
		if err := st.s.bus.Send(from, to, kind, payload); errors.Is(err, transport.ErrUnreachable) {
			st.answer(0, frameUnreachable, err.Error())
		} else {
			st.answer(0, frameReply, "")
		}
		return
	}
	st.mu.Lock()
	st.calls++
	st.mu.Unlock()
	id := f.id
	st.s.bus.Call(from, to, kind, payload, st.s.timeout, func(reply any, err error) { st.reply(id, kind, reply, err) })
}

// answer writes a reply-type frame from the handler goroutine; the flush
// waits for the next read that could block.
func (st *serverStream) answer(id uint64, typ byte, text string) {
	st.ack = beginFrame(st.ack[:0], typ, id)
	st.ack = append(st.ack, text...)
	if !endFrame(st.ack, 0) {
		st.ack = beginFrame(st.ack[:0], typ, id)
		endFrame(st.ack, 0)
	}
	st.mu.Lock()
	st.writeLocked(st.ack)
	st.mu.Unlock()
}

// reply writes a call's outcome, from the bus executor.
func (st *serverStream) reply(id uint64, kind string, reply any, err error) {
	buf := getBuffer()
	b := *buf
	switch {
	case errors.Is(err, transport.ErrUnreachable):
		b = append(beginFrame(b, frameUnreachable, id), err.Error()...)
	case err != nil:
		b = append(beginFrame(b, frameFailed, id), err.Error()...)
	default:
		b, err = protocol.AppendReply(beginFrame(b, frameReply, id), kind, reply)
		if err != nil {
			b = append(beginFrame(b[:0], frameFailed, id), "encode reply: "+err.Error()...)
		}
	}
	if !endFrame(b, 0) {
		b = append(beginFrame(b[:0], frameFailed, id), fmt.Sprintf("rest: %s reply of %d bytes is over the %d-byte cap", kind, len(b), maxEnvelopeBytes)...)
		endFrame(b, 0)
	}
	st.touch()
	st.mu.Lock()
	st.writeLocked(b)
	st.flushLocked()
	if st.calls--; st.calls == 0 {
		st.answered.Broadcast()
	}
	st.mu.Unlock()
	*buf = b
	putBuffer(buf)
}

func (st *serverStream) writeLocked(b []byte) {
	if st.closed {
		return
	}
	if _, err := st.w.Write(b); err != nil {
		st.closed = true // the connection is gone; the read side ends too
		return
	}
	st.pending = true
}

func (st *serverStream) flushLocked() {
	if !st.pending || st.closed {
		return
	}
	st.pending = false
	if st.flush() != nil {
		st.closed = true
	}
}

// goAway sends the close frame: the client writes what it has queued, ends
// the body and opens a new stream for anything later.
func (st *serverStream) goAway() {
	st.mu.Lock()
	if !st.goneAway {
		st.goneAway = true
		st.writeLocked(closeFrame[:])
		st.flushLocked()
	}
	st.mu.Unlock()
}

// idleCheck runs on the idle timer: it sends the close frame once nothing
// has happened on the stream for streamIdle with no call outstanding.
func (st *serverStream) idleCheck() {
	st.mu.Lock()
	if st.closed || st.goneAway {
		st.mu.Unlock()
		return
	}
	wait := streamIdle
	if st.calls == 0 {
		wait -= time.Since(st.start) - time.Duration(st.last.Load())
	}
	if wait <= 0 {
		st.goneAway = true
		st.writeLocked(closeFrame[:])
		st.flushLocked()
	} else {
		st.idle.Reset(wait)
	}
	st.mu.Unlock()
}

// track registers a stream so that its server's shutdown can close it; it
// reports whether that server is already shutting down.
func (s *Server) track(st *serverStream) (down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams == nil {
		s.streams = make(map[*serverStream]struct{})
		s.servers = make(map[*http.Server]bool)
	}
	s.streams[st] = struct{}{}
	if st.srv == nil {
		return false
	}
	down, hooked := s.servers[st.srv]
	if !hooked {
		s.servers[st.srv] = false
		srv := st.srv
		srv.RegisterOnShutdown(func() { s.shutdown(srv) })
	}
	return down
}

func (s *Server) untrack(st *serverStream) {
	s.mu.Lock()
	delete(s.streams, st)
	s.mu.Unlock()
}

// shutdown sends the close frame on every stream srv carries, so that
// srv.Shutdown does not wait for its deadline.
func (s *Server) shutdown(srv *http.Server) {
	s.mu.Lock()
	s.servers[srv] = true
	var open []*serverStream
	for st := range s.streams {
		if st.srv == srv {
			open = append(open, st)
		}
	}
	s.mu.Unlock()
	for _, st := range open {
		st.goAway()
	}
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

// peerConn is one remote process (one base URL) as a Gateway reaches it.
type peerConn struct {
	g   *Gateway
	url string

	mu       sync.Mutex
	st       *clientStream // nil until a frame needs one
	fallback bool          // the peer has no stream route: per-frame POST
}

// stream returns the peer's open stream, dialling one if there is none.
func (pc *peerConn) stream() (*clientStream, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	switch {
	case pc.g.closed.Load():
		return nil, errClosed
	case pc.st != nil:
		return pc.st, nil
	case pc.fallback:
		return nil, errFallback
	}
	st, err := pc.dial()
	if err != nil {
		return nil, err
	}
	pc.st = st
	return st, nil
}

// detach makes the next frame open a new stream instead of st.
func (pc *peerConn) detach(st *clientStream) {
	pc.mu.Lock()
	if pc.st == st {
		pc.st = nil
	}
	pc.mu.Unlock()
}

func (pc *peerConn) dial() (*clientStream, error) {
	g := pc.g
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, pc.url+streamPath, pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", streamContentType)
	// One stream per connection: it closes with the stream instead of idling
	// in a pool, and an older server answering 404 does not read the body
	// first.
	req.Close = true
	resp, err := g.stream.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		pw.Close()
		cancel()
		if resp.StatusCode == http.StatusNotFound {
			pc.fallback = true
			g.fallbacks.Add(1)
			return nil, errFallback
		}
		return nil, fmt.Errorf("rest: %s%s: %s", pc.url, streamPath, resp.Status)
	}
	st := &clientStream{pc: pc, pr: pr, pw: pw, resp: resp, cancel: cancel,
		calls: make(map[uint64]*transport.Request)}
	st.more.L = &st.mu
	g.mu.Lock()
	if g.closed.Load() {
		g.mu.Unlock()
		resp.Body.Close()
		pw.Close()
		cancel()
		return nil, errClosed
	}
	g.streams[st] = struct{}{}
	g.mu.Unlock()
	st.wg.Add(2)
	go st.writeLoop()
	go st.readLoop()
	return st, nil
}

// clientStream is one outbound stream: a bounded queue drained by one writer
// goroutine, and a reader goroutine that answers calls by ID.
type clientStream struct {
	pc     *peerConn
	pr     *io.PipeReader // the request body, read by the HTTP transport
	pw     *io.PipeWriter
	resp   *http.Response
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	more     sync.Cond // the queue got a frame, the stream drains or fails
	queue    []outbound
	spare    []outbound
	calls    map[uint64]*transport.Request // queued or written, not answered
	nextID   uint64
	oneWays  int   // one-way frames queued or written, not acknowledged
	draining bool  // the close frame came: write the queue, then end the body
	err      error // the stream failed or ended: nothing more is sent
}

// outbound is a queued message and its call ID (0 for one-way).
type outbound struct {
	req *transport.Request
	id  uint64
}

// enqueue queues req; false means the stream takes no more frames and req
// needs another.
func (st *clientStream) enqueue(req *transport.Request) bool {
	g := st.pc.g
	st.mu.Lock()
	if st.err != nil || st.draining {
		st.mu.Unlock()
		return false
	}
	if len(st.queue) >= g.queueLimit {
		// Full: the oldest one-way frame makes room; a heartbeat or report
		// that is dropped is superseded by the next one.
		i := 0
		for i < len(st.queue) && st.queue[i].id != 0 {
			i++
		}
		if i == len(st.queue) {
			st.mu.Unlock()
			g.overflow(req)
			return true
		}
		copy(st.queue[i:], st.queue[i+1:])
		st.queue[len(st.queue)-1] = outbound{}
		st.queue = st.queue[:len(st.queue)-1]
		st.oneWays--
		g.dropped.Add(1)
		g.failed(1)
	}
	var id uint64
	if req.OneWay() {
		st.oneWays++
	} else {
		st.nextID++
		id = st.nextID
		st.calls[id] = req
	}
	st.queue = append(st.queue, outbound{req, id})
	if len(st.queue) == 1 {
		st.more.Signal()
	}
	st.mu.Unlock()
	return true
}

// writeLoop writes each drained batch of the queue with one write, so that
// frames go out in queue order and a burst leaves in one flush.
func (st *clientStream) writeLoop() {
	defer st.wg.Done()
	g := st.pc.g
	var buf []byte
	for {
		st.mu.Lock()
		for len(st.queue) == 0 && st.err == nil && !st.draining {
			st.more.Wait()
		}
		if failed := st.err != nil; failed || len(st.queue) == 0 {
			st.mu.Unlock()
			if !failed {
				st.pw.Close() // drained: the server sees the body end
			}
			return
		}
		batch := st.queue
		st.queue, st.spare = st.spare[:0], nil
		st.mu.Unlock()

		buf = buf[:0]
		for _, o := range batch {
			var err error
			if buf, err = appendMessage(buf, o.id, o.req); err != nil && st.unqueue(o) {
				g.failed(1)
				o.req.RespondErr(err)
			}
		}
		if len(buf) > 0 {
			if _, err := st.pw.Write(buf); err != nil {
				st.fail(err)
				return
			}
		}
		if cap(buf) > maxEnvelopeBytes {
			buf = nil
		}
		clear(batch)
		st.mu.Lock()
		st.spare = batch[:0]
		st.mu.Unlock()
	}
}

// unqueue forgets a message that was never written; false if the stream
// has failed, which answered it already.
func (st *clientStream) unqueue(o outbound) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return false
	}
	if o.id == 0 {
		st.oneWays--
	} else {
		delete(st.calls, o.id)
	}
	return true
}

// readLoop reads the server's frames until the response ends.
func (st *clientStream) readLoop() {
	defer st.wg.Done()
	defer st.pc.g.forget(st)
	defer st.resp.Body.Close()
	fr := frameReader{r: bufio.NewReader(st.resp.Body)}
	err := errStreamEnded
	for {
		b, rerr := fr.next()
		if rerr != nil {
			if rerr != io.EOF {
				err = rerr
			}
			break
		}
		f, perr := parseFrame(b)
		if perr == nil && (f.typ == frameCall || f.typ == frameOneWay) {
			perr = errFrameFormat
		}
		if perr != nil {
			err = perr
			break
		}
		if f.typ == frameClose {
			st.drain()
		} else {
			st.answer(&f)
		}
	}
	st.fail(err)
}

// drain takes the stream out of service after the server's close frame.
func (st *clientStream) drain() {
	st.pc.detach(st)
	st.mu.Lock()
	st.draining = true
	st.more.Signal()
	st.mu.Unlock()
}

// answer completes the message a reply-type frame answers.
func (st *clientStream) answer(f *frame) {
	g := st.pc.g
	var req *transport.Request
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return // counted and answered by fail
	}
	switch {
	case f.id == 0 && st.oneWays > 0:
		st.oneWays--
	case f.id != 0 && st.calls[f.id] != nil:
		req = st.calls[f.id]
		delete(st.calls, f.id)
	default:
		st.mu.Unlock()
		return // answers nothing this stream sent
	}
	st.mu.Unlock()
	if f.typ == frameUnreachable || f.typ == frameRefused {
		g.forwardErrors.Add(1)
	}
	g.forwards.Add(1)
	if req == nil {
		return
	}
	switch f.typ {
	case frameReply:
		if reply, err := protocol.DecodeReply(req.Kind, f.body); err != nil {
			req.RespondErr(err)
		} else {
			req.Respond(reply)
		}
	case frameUnreachable:
		// Re-typed so that errors.Is works across the hop.
		req.RespondErr(fmt.Errorf("%w: %s", transport.ErrUnreachable,
			strings.TrimPrefix(string(f.body), transport.ErrUnreachable.Error()+": ")))
	default:
		req.RespondErr(errors.New(string(f.body)))
	}
}

// fail ends the stream with err: whatever it holds that is not answered yet
// fails at once, and its goroutines and connection go away.
func (st *clientStream) fail(err error) {
	st.pc.detach(st)
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return
	}
	st.err = err
	calls, oneWays := st.calls, st.oneWays
	st.calls, st.oneWays, st.queue = nil, 0, nil
	st.more.Signal()
	st.mu.Unlock()

	st.pr.CloseWithError(err) // a blocked write returns
	st.pw.CloseWithError(err)
	st.cancel() // the response read returns
	g := st.pc.g
	g.failed(oneWays + len(calls))
	g.brokenCalls.Add(uint64(len(calls)))
	for _, req := range calls {
		req.RespondErr(fmt.Errorf("%w: %s: stream to %s: %v", transport.ErrUnreachable, req.To, st.pc.url, err))
	}
}
