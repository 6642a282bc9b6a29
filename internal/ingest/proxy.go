package ingest

import (
	"context"
	"errors"
	"net"

	"droppackets/internal/tlsproxy"
)

// ProxySource adapts the live SNI-sniffing proxy to the
// TransactionSource interface: it owns a tlsproxy.Proxy whose
// callbacks forward into the Run handler. Unlike file sources the
// proxy's events arrive on per-connection goroutines as traffic
// happens — per-connection open-before-transaction ordering holds, but
// there is no global replay order to reproduce. Stats().Clients stays
// 0: counting distinct hosts would need a set that grows for as long as
// the daemon runs, and the daemon's own client map already knows.
type ProxySource struct {
	// Listener accepts the proxy's client connections; it must be set
	// before Run (the daemon binds it so address errors surface before
	// serving starts).
	Listener net.Listener

	proxy *tlsproxy.Proxy
	// h is written once by Run before it calls Serve; every callback runs
	// on a goroutine Serve started, so reads need no lock.
	h Handler
	tally
}

// NewProxySource builds the proxy from cfg, overriding its OnConnOpen
// and OnTransaction callbacks to forward into whatever handler Run is
// given.
func NewProxySource(cfg tlsproxy.Config) (*ProxySource, error) {
	s := &ProxySource{}
	cfg.OnConnOpen = s.connOpen
	cfg.OnTransaction = s.transaction
	p, err := tlsproxy.New(cfg)
	if err != nil {
		return nil, err
	}
	s.proxy = p
	return s, nil
}

// Proxy exposes the underlying proxy so the daemon can bridge its
// Stats into metrics.
func (s *ProxySource) Proxy() *tlsproxy.Proxy { return s.proxy }

// Name reports "proxy".
func (s *ProxySource) Name() string { return "proxy" }

// Run serves the listener until ctx is cancelled (a clean nil return)
// or the listener fails.
func (s *ProxySource) Run(ctx context.Context, h Handler) error {
	if s.Listener == nil {
		return errors.New("ingest: ProxySource.Run needs a Listener")
	}
	s.h = h
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			s.proxy.Close()
		case <-stop:
		}
	}()
	err := s.proxy.Serve(s.Listener)
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// connOpen forwards a connection-open event.
func (s *ProxySource) connOpen(r tlsproxy.Record) {
	if s.h.ConnOpen != nil {
		s.h.ConnOpen(r)
	}
}

// transaction forwards a completed record; the live proxy has no
// natural batch, so the handler sees one-element batches.
func (s *ProxySource) transaction(r tlsproxy.Record) {
	s.records.Add(1)
	if s.h.TransactionBatch != nil {
		one := [1]tlsproxy.Record{r}
		s.h.TransactionBatch(one[:])
	}
}
