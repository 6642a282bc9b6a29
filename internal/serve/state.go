package serve

import (
	"droppackets/internal/capture"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
)

// ClientState is one client's complete serving state in serializable
// form: sessionizer, reorder buffer, in-flight and current-session
// runs, recent-transaction ring, lifetime aggregates and last verdict.
// No feature state is kept: a row is rebuilt from the transaction runs
// on every pass that scores it, so restoring the runs restores the
// bit-identical row. Transaction runs are written as
// capture.TLSTransaction, in the order the live state keeps (Current ++
// InFlight ++ Buffer is the ongoing session in start order). Buffer
// carries each SNI, which the sessionizer has yet to see; the live
// state keeps no SNI for InFlight, Current and Recent (the streamer
// holds the ones it still needs), so they are written with an empty
// SNI and a zero HTTPCount, and Restore ignores both fields there. The
// JSON form is the client entry of qoeproxy's snapshot file; every time
// is epoch seconds.
type ClientState struct {
	Client       string                   `json:"client"`
	Streamer     sessionid.StreamerState  `json:"streamer"`
	ActiveStarts map[uint64]float64       `json:"active_starts,omitempty"`
	Buffer       []capture.TLSTransaction `json:"buffer,omitempty"`
	InFlight     []capture.TLSTransaction `json:"in_flight,omitempty"`
	Current      []capture.TLSTransaction `json:"current,omitempty"`
	// Recent is the retained summary ring, oldest first; RecentDropped
	// restores its lifetime drop count.
	Recent        []capture.TLSTransaction `json:"recent,omitempty"`
	RecentDropped int64                    `json:"recent_dropped,omitempty"`
	LastActivity  float64                  `json:"last_activity"`
	Txns          int64                    `json:"txns"`
	UpBytes       int64                    `json:"up_bytes"`
	DownBytes     int64                    `json:"down_bytes"`
	Dur           stats.RunningState       `json:"dur"`
	Boundaries    int64                    `json:"boundaries"`
	Truncated     bool                     `json:"truncated,omitempty"`
	LastClass     int                      `json:"last_class,omitempty"`
	HasClass      bool                     `json:"has_class,omitempty"`
	// ScoredBy is the bundle stamp the stored class was scored under. It
	// is not persisted: a restored client is unscored, so the restoring
	// process scores it once under its own bundle.
	ScoredBy uint64 `json:"-"`
}

// Save appends every client's state to dst, in no particular order.
// The appended states share nothing with the Core.
func (c *Core) Save(dst []ClientState) []ClientState {
	for host, cl := range c.clients {
		dst = append(dst, cl.save(host))
	}
	return dst
}

// Client returns one client's state, as Save would, and whether the
// Core holds the client.
func (c *Core) Client(host string) (ClientState, bool) {
	cl, ok := c.clients[host]
	if !ok {
		return ClientState{}, false
	}
	return cl.save(host), true
}

func (cl *client) save(host string) ClientState {
	st := ClientState{
		Client:        host,
		Streamer:      cl.streamer.State(),
		Buffer:        append([]capture.TLSTransaction(nil), cl.buffer...),
		InFlight:      expandRun(nil, cl.inFlight),
		Current:       expandRun(nil, cl.current),
		Recent:        cl.recent.expand(nil),
		RecentDropped: cl.recent.dropped,
		LastActivity:  cl.lastActivity,
		Txns:          cl.txns,
		UpBytes:       cl.upBytes,
		DownBytes:     cl.downBytes,
		Dur:           cl.durStats.State(),
		Boundaries:    cl.boundaries,
		Truncated:     cl.truncated,
		LastClass:     cl.lastClass,
		HasClass:      cl.hasClass,
		ScoredBy:      cl.scoredBy,
	}
	if len(cl.activeStarts) > 0 {
		st.ActiveStarts = make(map[uint64]float64, len(cl.activeStarts))
		for _, a := range cl.activeStarts {
			st.ActiveStarts[a.connID] = a.start
		}
	}
	return st
}

// Restore installs a saved client, replacing any state the Core holds
// for it, and reports whether its verdict was kept. A verdict is kept
// only when it names one of numClasses classes: one from a model with
// more classes, a damaged file, or any verdict when no model serves
// (numClasses 0) is dropped, so the client's next verdict counts as its
// first. The restored client is unscored and re-scored by the next
// Dirty Gather; it joins the fresh queue at its next commit, like a
// new client, if it has no verdict.
func (c *Core) Restore(st *ClientState, numClasses int) bool {
	hasClass := st.HasClass && st.LastClass >= 0 && st.LastClass < numClasses
	cl := &client{
		streamer:     sessionid.RestoreStreamer(sessionid.PaperParams, st.Streamer),
		buffer:       append([]capture.TLSTransaction(nil), st.Buffer...),
		inFlight:     retainRun(st.InFlight),
		current:      retainRun(st.Current),
		recent:       newTxnRing(c.maxTxns),
		lastActivity: st.LastActivity,
		txns:         st.Txns,
		upBytes:      st.UpBytes,
		downBytes:    st.DownBytes,
		boundaries:   st.Boundaries,
		truncated:    st.Truncated,
		hasClass:     hasClass,
	}
	if hasClass {
		cl.lastClass = st.LastClass
	}
	for id, start := range st.ActiveStarts {
		cl.activeStarts = append(cl.activeStarts, activeConn{id, start})
	}
	for _, t := range st.Recent {
		cl.recent.push(retain(t))
	}
	cl.recent.dropped = st.RecentDropped
	cl.durStats.Restore(st.Dur)
	old := c.clients[st.Client]
	c.clients[st.Client] = cl
	if old != nil && old.queued {
		c.dropRetired()
	}
	return hasClass
}

// retainRun converts a saved run to retained transactions; nil for an
// empty one, as the live state starts.
func retainRun(run []capture.TLSTransaction) []retained {
	if len(run) == 0 {
		return nil
	}
	out := make([]retained, len(run))
	for i, t := range run {
		out[i] = retain(t)
	}
	return out
}
