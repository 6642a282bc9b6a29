package tlsproxy

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"droppackets/internal/capture"
)

// Record is the proxy's per-connection transaction export: the same
// four fields the paper's inference consumes (§2.2). Byte counts are
// everything relayed after (and including) the ClientHello.
type Record struct {
	// ConnID identifies the connection uniquely within this proxy
	// process; the OnConnOpen record and the final OnTransaction record
	// of one connection carry the same ConnID, letting consumers (the
	// online sessionizer's reorder buffer in cmd/qoeproxy) pair them.
	ConnID     uint64
	SNI        string
	ClientAddr string
	Start, End time.Time
	UpBytes    int64 // client -> server
	DownBytes  int64 // server -> client
}

// ToCaptureTransaction converts one proxy record to the capture layer's
// transaction type with times in seconds relative to epoch — the
// per-record form the daemon's hot path uses so converting a single
// record needs no slice allocation.
func ToCaptureTransaction(r Record, epoch time.Time) capture.TLSTransaction {
	return capture.TLSTransaction{
		SNI:       r.SNI,
		Start:     r.Start.Sub(epoch).Seconds(),
		End:       r.End.Sub(epoch).Seconds(),
		DownBytes: r.DownBytes,
		UpBytes:   r.UpBytes,
	}
}

// ToCaptureTransactions converts proxy records to the capture layer's
// transaction type with times in seconds relative to epoch, ready for
// feature extraction.
func ToCaptureTransactions(records []Record, epoch time.Time) []capture.TLSTransaction {
	out := make([]capture.TLSTransaction, len(records))
	for i, r := range records {
		out[i] = ToCaptureTransaction(r, epoch)
	}
	return out
}

// Resolver maps an SNI hostname to the backend address the proxy dials.
// A transparent proxy in an ISP learns this from the original
// destination IP; offline deployments map hostnames explicitly.
type Resolver func(sni string) (addr string, err error)

// StaticResolver always returns one backend address, useful when a
// single synthetic origin serves every hostname.
func StaticResolver(addr string) Resolver {
	return func(string) (string, error) { return addr, nil }
}

// Config parameterises a Proxy.
type Config struct {
	// Resolver is required: it picks the upstream for each connection.
	Resolver Resolver
	// OnTransaction, if set, receives a Record when a connection ends.
	// Every connection announced through OnConnOpen is guaranteed a
	// matching OnTransaction call, even when the backend leg fails.
	OnTransaction func(Record)
	// OnConnOpen, if set, receives a partial Record (ConnID, SNI,
	// ClientAddr, Start) once the ClientHello has been parsed and the
	// backend leg dialed — i.e. for exactly the connections that will
	// later produce an OnTransaction record. Online consumers use it to
	// know which transactions are still in flight.
	OnConnOpen func(Record)
	// HelloTimeout bounds how long the proxy waits for the ClientHello
	// (default 10 s).
	HelloTimeout time.Duration
	// DialTimeout bounds upstream dials (default 10 s).
	DialTimeout time.Duration
	// Dialer overrides how backend connections are established (default
	// net.DialTimeout). Chaos tests inject stalling or erroring
	// connections here (internal/faultinject); production deployments
	// can route through SOCKS or bind to a specific interface.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Logger receives diagnostics; nil silences them.
	Logger *log.Logger
}

// Proxy is an SNI-sniffing transparent TCP proxy.
type Proxy struct {
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	active atomic.Int64
	total  atomic.Int64

	nextConnID      atomic.Uint64
	helloFailures   atomic.Int64
	resolveFailures atomic.Int64
	dialFailures    atomic.Int64
	relayedUp       atomic.Int64
	relayedDown     atomic.Int64
}

// Stats is a snapshot of the proxy's lifetime counters: the error
// taxonomy (why connections were rejected before relaying) and the
// relay totals. All fields are monotone except ActiveConnections.
type Stats struct {
	// ActiveConnections is the number of client connections currently
	// being relayed or awaiting their ClientHello.
	ActiveConnections int64
	// TotalConnections counts every accepted client connection.
	TotalConnections int64
	// HelloFailures counts connections dropped because the ClientHello
	// never arrived, timed out, or failed to parse.
	HelloFailures int64
	// ResolveFailures counts connections whose SNI had no backend.
	ResolveFailures int64
	// DialFailures counts connections whose backend dial failed.
	DialFailures int64
	// RelayedUpBytes is the total client-to-server bytes relayed,
	// including ClientHello bytes, summed at connection end.
	RelayedUpBytes int64
	// RelayedDownBytes is the total server-to-client bytes relayed,
	// summed at connection end.
	RelayedDownBytes int64
}

// Stats returns a point-in-time snapshot of the proxy's counters. Each
// field is read atomically; the snapshot as a whole is not a single
// consistent cut, which is fine for monitoring.
func (p *Proxy) Stats() Stats {
	return Stats{
		ActiveConnections: p.active.Load(),
		TotalConnections:  p.total.Load(),
		HelloFailures:     p.helloFailures.Load(),
		ResolveFailures:   p.resolveFailures.Load(),
		DialFailures:      p.dialFailures.Load(),
		RelayedUpBytes:    p.relayedUp.Load(),
		RelayedDownBytes:  p.relayedDown.Load(),
	}
}

// New validates the configuration and creates a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Resolver == nil {
		return nil, fmt.Errorf("tlsproxy: config needs a Resolver")
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Dialer == nil {
		cfg.Dialer = net.DialTimeout
	}
	return &Proxy{
		cfg:       cfg,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}, nil
}

// ActiveConnections reports currently relayed connections.
func (p *Proxy) ActiveConnections() int64 { return p.active.Load() }

// TotalConnections reports connections accepted over the proxy's life.
func (p *Proxy) TotalConnections() int64 { return p.total.Load() }

// logf writes a diagnostic when a logger is configured.
func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf("tlsproxy: "+format, args...)
	}
}

// Serve accepts connections on l until the listener fails or the proxy
// is closed. It returns nil after Close.
func (p *Proxy) Serve(l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.Close()
		return fmt.Errorf("tlsproxy: proxy is closed")
	}
	p.listeners[l] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.listeners, l)
		p.mu.Unlock()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("tlsproxy: accept: %w", err)
		}
		p.track(conn, true)
		p.total.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.handle(conn)
		}()
	}
}

func (p *Proxy) track(c net.Conn, add bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if add {
		p.conns[c] = struct{}{}
	} else {
		delete(p.conns, c)
	}
}

// Close stops all listeners and open relays.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for l := range p.listeners {
		l.Close()
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	return nil
}

// handle sniffs the ClientHello, dials the backend and relays bytes,
// emitting a Record when the connection ends.
func (p *Proxy) handle(client net.Conn) {
	p.active.Add(1)
	defer p.active.Add(-1)
	defer p.track(client, false)
	defer client.Close()

	start := time.Now()
	client.SetReadDeadline(start.Add(p.cfg.HelloTimeout))
	hello, sni, err := readClientHello(client)
	if err != nil {
		p.helloFailures.Add(1)
		p.logf("reject %s: %v", client.RemoteAddr(), err)
		return
	}
	client.SetReadDeadline(time.Time{})

	addr, err := p.cfg.Resolver(sni)
	if err != nil {
		p.resolveFailures.Add(1)
		p.logf("resolve %q: %v", sni, err)
		return
	}
	backend, err := p.cfg.Dialer("tcp", addr, p.cfg.DialTimeout)
	if err != nil {
		p.dialFailures.Add(1)
		p.logf("dial %s for %q: %v", addr, sni, err)
		return
	}
	p.track(backend, true)
	defer p.track(backend, false)
	defer backend.Close()

	rec := Record{
		ConnID:     p.nextConnID.Add(1),
		SNI:        sni,
		ClientAddr: client.RemoteAddr().String(),
		Start:      start,
	}
	if p.cfg.OnConnOpen != nil {
		p.cfg.OnConnOpen(rec)
	}
	rec.UpBytes = int64(len(hello))
	// From here on a final Record is always emitted, so every OnConnOpen
	// gets its matching OnTransaction even if the relay dies early.
	defer func() {
		rec.End = time.Now()
		p.relayedUp.Add(rec.UpBytes)
		p.relayedDown.Add(rec.DownBytes)
		if p.cfg.OnTransaction != nil {
			p.cfg.OnTransaction(rec)
		}
	}()
	if _, err := backend.Write(hello); err != nil {
		p.logf("forward hello to %s: %v", addr, err)
		return
	}

	// Relay both directions; whichever side closes first triggers
	// teardown of the other.
	var up, down int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n, _ := io.Copy(backend, client)
		atomic.AddInt64(&up, n)
		halfClose(backend)
	}()
	go func() {
		defer wg.Done()
		n, _ := io.Copy(client, backend)
		atomic.AddInt64(&down, n)
		halfClose(client)
	}()
	wg.Wait()
	rec.UpBytes += atomic.LoadInt64(&up)
	rec.DownBytes = atomic.LoadInt64(&down)
}

// halfClose signals EOF to the peer after one relay direction drains:
// TCP half-close when available, a short read deadline otherwise.
func halfClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
		return
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
}

// readClientHello accumulates bytes until a full ClientHello record is
// available, returning the raw bytes (to forward) and the SNI.
func readClientHello(r io.Reader) (raw []byte, sni string, err error) {
	buf := make([]byte, 0, 1024)
	tmp := make([]byte, 1024)
	for {
		sni, n, perr := ParseClientHello(buf)
		if perr == nil {
			return buf[:n], sni, nil
		}
		if !errors.Is(perr, ErrNeedMore) {
			return nil, "", perr
		}
		m, rerr := r.Read(tmp)
		if m > 0 {
			buf = append(buf, tmp[:m]...)
			if len(buf) > MaxRecordLen+recordHeaderLen {
				return nil, "", fmt.Errorf("tlsproxy: client_hello exceeds record bounds")
			}
			continue
		}
		if rerr != nil {
			return nil, "", fmt.Errorf("tlsproxy: reading client_hello: %w", rerr)
		}
	}
}
