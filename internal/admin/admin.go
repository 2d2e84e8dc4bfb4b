// Package admin implements the live observability plane for a running
// CrossPrefetch system: one HTTP server exposing the cross-layer
// telemetry as Prometheus text (/metrics), the online effectiveness
// scorecards as JSON with interval-rate deltas (/scorecards, filterable
// by ?tenant= / ?inode=), the predictor ensemble's live arm table
// (/predictors), the device stack's tier view (/tiers: per-backend
// occupancy, promotion/demotion totals, extent heat table), the span
// flight recorder's slowest retained roots (/tracez), and the standard
// Go profiling endpoints (/debug/pprof). The server reads live state
// through provider callbacks so it can outlive any single System
// (crossbench -admin follows each experiment cell's freshly built system
// under one listener) and shuts down with a bounded drain so experiments
// stay leak-free under the race detector.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/crosslib"
	"repro/internal/telemetry"
)

// Config wires the admin plane to live telemetry state. Every provider
// may return nil (telemetry off, or no system live yet); the matching
// endpoint then answers 503 rather than panicking.
type Config struct {
	// Snapshot returns the current recorder snapshot for /metrics.
	Snapshot func() *telemetry.Snapshot
	// Scorecard returns the current scorecard snapshot for /scorecards.
	Scorecard func() *telemetry.ScorecardSnapshot
	// Tracer returns the live span tracer for /tracez.
	Tracer func() *telemetry.Tracer
	// Predictors returns the live per-inode ensemble table for
	// /predictors (live arm, bandit scores, promotions).
	Predictors func() []crosslib.PredictorRow
	// Tiers returns the live device stack for /tiers (per-backend
	// occupancy and the tier residency/heat view).
	Tiers func() *blockdev.Stack
	// DrainTimeout bounds Shutdown's graceful connection drain; past it
	// remaining connections are closed hard. Default 2s.
	DrainTimeout time.Duration
}

// Server is one running admin listener.
type Server struct {
	cfg Config
	srv *http.Server
	ln  net.Listener

	// scoreMu guards prev, the last /scorecards snapshot served — the
	// baseline the next scrape's interval delta is computed against.
	scoreMu sync.Mutex
	prev    *telemetry.ScorecardSnapshot

	done chan struct{} // closed when the serve loop exits
}

// Start listens on addr (host:port; an empty host binds all interfaces,
// port 0 picks a free one) and serves the admin plane until Shutdown.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	s := &Server{cfg: cfg, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/scorecards", s.handleScorecards)
	mux.HandleFunc("/predictors", s.handlePredictors)
	mux.HandleFunc("/tiers", s.handleTiers)
	mux.HandleFunc("/tracez", s.handleTracez)
	// The pprof handlers are registered explicitly on this mux (never the
	// DefaultServeMux) so importing this package has no global effects.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// ErrServerClosed is the normal Shutdown signal; anything else
		// surfaces on the endpoint users, not here.
		_ = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Addr reports the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the listener and drains in-flight requests for at most
// DrainTimeout, then closes whatever remains. It returns once the serve
// loop has exited — no goroutine or socket outlives the call.
func (s *Server) Shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Bounded drain expired: close the stragglers hard.
		s.srv.Close()
	}
	<-s.done
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `crossprefetch admin plane
/metrics          cross-layer telemetry (Prometheus text exposition)
/scorecards       per-file and per-tenant effectiveness scorecards (JSON; cumulative + delta since last scrape; ?tenant= / ?inode= filter)
/predictors       predictor ensemble: live arm, bandit scores, promotions per file (JSON)
/tiers            device stack: per-backend occupancy, tier residency, promotion/demotion totals, extent heat (JSON; ?heat= bounds the heat table)
/tracez           flight recorder: slowest retained spans per operation class (JSON; ?n= bounds roots)
/debug/pprof/     Go runtime profiles
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap *telemetry.Snapshot
	if s.cfg.Snapshot != nil {
		snap = s.cfg.Snapshot()
	}
	if snap == nil {
		http.Error(w, "telemetry disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is cut the connection short.
		return
	}
}

// scorecardsReply is the /scorecards response body: the cumulative
// snapshot plus per-card deltas since this server's previous scrape
// (ratios recomputed over just the interval — the live rate view).
type scorecardsReply struct {
	Scorecards *telemetry.ScorecardSnapshot `json:"scorecards"`
	Delta      *telemetry.ScorecardDelta    `json:"delta"`
}

func (s *Server) handleScorecards(w http.ResponseWriter, r *http.Request) {
	var cur *telemetry.ScorecardSnapshot
	if s.cfg.Scorecard != nil {
		cur = s.cfg.Scorecard()
	}
	if cur == nil {
		http.Error(w, "scorecards disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	tenant, hasTenant, err := queryInt64(q.Get("tenant"))
	if err != nil {
		http.Error(w, "bad tenant: "+err.Error(), http.StatusBadRequest)
		return
	}
	ino, hasIno, err := queryInt64(q.Get("inode"))
	if err != nil {
		http.Error(w, "bad inode: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The delta baseline is always the FULL snapshot — a filtered scrape
	// must not make the next scrape's interval start from a hole.
	s.scoreMu.Lock()
	delta := cur.Diff(s.prev)
	s.prev = cur
	s.scoreMu.Unlock()
	if hasTenant || hasIno {
		cur = filterSnapshot(cur, hasTenant, tenant, hasIno, ino)
		delta = filterDelta(delta, hasTenant, tenant, hasIno, ino)
	}
	writeJSON(w, scorecardsReply{Scorecards: cur, Delta: delta})
}

// queryInt64 parses an optional integer query parameter: absent is not
// an error, anything non-numeric is.
func queryInt64(v string) (n int64, present bool, err error) {
	if v == "" {
		return 0, false, nil
	}
	n, err = strconv.ParseInt(v, 10, 64)
	return n, err == nil, err
}

// filterSnapshot narrows a snapshot to one tenant and/or one inode:
// ?tenant= keeps the matching tenant card, ?inode= the matching file
// card and that inode's per-arm shadow cards. Sections the filter's key
// dimension doesn't apply to pass through untouched. The input is not
// mutated (it is also the server's delta baseline).
func filterSnapshot(in *telemetry.ScorecardSnapshot, hasTenant bool, tenant int64,
	hasIno bool, ino int64) *telemetry.ScorecardSnapshot {
	out := *in
	if hasTenant {
		out.Tenants = filterCards(in.Tenants, func(c *telemetry.CardScore) bool {
			return c.Key == tenant
		})
	}
	if hasIno {
		out.Files = filterCards(in.Files, func(c *telemetry.CardScore) bool {
			return c.Key == ino
		})
		out.Arms = filterCards(in.Arms, func(c *telemetry.CardScore) bool {
			return c.Ino == ino
		})
	}
	return &out
}

func filterDelta(in *telemetry.ScorecardDelta, hasTenant bool, tenant int64,
	hasIno bool, ino int64) *telemetry.ScorecardDelta {
	if in == nil {
		return nil
	}
	out := *in
	if hasTenant {
		out.Tenants = filterCards(in.Tenants, func(c *telemetry.CardScore) bool {
			return c.Key == tenant
		})
	}
	if hasIno {
		out.Files = filterCards(in.Files, func(c *telemetry.CardScore) bool {
			return c.Key == ino
		})
		out.Arms = filterCards(in.Arms, func(c *telemetry.CardScore) bool {
			return c.Ino == ino
		})
	}
	return &out
}

func filterCards(cards []telemetry.CardScore, keep func(*telemetry.CardScore) bool) []telemetry.CardScore {
	out := make([]telemetry.CardScore, 0, 1)
	for i := range cards {
		if keep(&cards[i]) {
			out = append(out, cards[i])
		}
	}
	return out
}

// predictorsReply is the /predictors response body: the registered arm
// names (always complete — the legend iterates telemetry.NumArms, so a
// new arm cannot ship without appearing here) and the live per-file
// ensemble table.
type predictorsReply struct {
	Arms  []string                `json:"arms"`
	Files []crosslib.PredictorRow `json:"files"`
}

func (s *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Predictors == nil {
		http.Error(w, "predictors unavailable: no system live", http.StatusServiceUnavailable)
		return
	}
	reply := predictorsReply{Files: s.cfg.Predictors()}
	for a := telemetry.Arm(0); a < telemetry.NumArms; a++ {
		reply.Arms = append(reply.Arms, a.String())
	}
	if reply.Files == nil {
		reply.Files = []crosslib.PredictorRow{}
	}
	writeJSON(w, reply)
}

// tierBackend is one stack member's occupancy row in the /tiers reply.
type tierBackend struct {
	Backend      int    `json:"backend"`
	Name         string `json:"name"`
	ReadOps      int64  `json:"read_ops"`
	WriteOps     int64  `json:"write_ops"`
	ReadBytes    int64  `json:"read_bytes"`
	WriteBytes   int64  `json:"write_bytes"`
	BusyNs       int64  `json:"busy_ns"`
	PlugSegments int64  `json:"plug_segments"`
	PlugCommands int64  `json:"plug_commands"`
	Merged       int64  `json:"merged_segments"`
}

// tiersReply is the /tiers response body: the stack shape, one
// occupancy row per backend (these partition the stack-level device
// counters exactly — the telemetry audit checks that identity), and the
// tier machinery's residency/heat view.
type tiersReply struct {
	Stack      string             `json:"stack"`
	Width      int                `json:"width"`
	ChunkBytes int64              `json:"chunk_bytes"`
	Backends   []tierBackend      `json:"backends"`
	Tier       blockdev.TierStats `json:"tier"`
}

func (s *Server) handleTiers(w http.ResponseWriter, r *http.Request) {
	var st *blockdev.Stack
	if s.cfg.Tiers != nil {
		st = s.cfg.Tiers()
	}
	if st == nil {
		http.Error(w, "tiers unavailable: no system live", http.StatusServiceUnavailable)
		return
	}
	heat := 16
	if v := r.URL.Query().Get("heat"); v != "" {
		if n, err := parseInt(v); err == nil && n >= 0 {
			heat = n
		}
	}
	cfg := st.Config()
	reply := tiersReply{
		Stack:      st.Stats().Name,
		Width:      st.Width(),
		ChunkBytes: cfg.ChunkBytes,
		Tier:       st.TierStats(heat),
	}
	for i, ms := range st.MemberStats() {
		reply.Backends = append(reply.Backends, tierBackend{
			Backend: i, Name: ms.Name,
			ReadOps: ms.ReadOps, WriteOps: ms.WriteOps,
			ReadBytes: ms.ReadBytes, WriteBytes: ms.WriteBytes,
			BusyNs:       int64(ms.Busy),
			PlugSegments: ms.PlugSegments, PlugCommands: ms.PlugCommands,
			Merged: ms.MergedSegments,
		})
	}
	writeJSON(w, reply)
}

// tracezRoot is one retained root span in the /tracez dump.
type tracezRoot struct {
	Op         string           `json:"op"`
	Ino        int64            `json:"ino"`
	Seq        int64            `json:"seq"`
	StartNs    int64            `json:"start_ns"`
	DurationNs int64            `json:"duration_ns"`
	Spans      int              `json:"spans"`
	Dropped    int64            `json:"dropped_spans"`
	Categories map[string]int64 `json:"categories,omitempty"`
}

type tracezReply struct {
	Stats *telemetry.TraceStats `json:"stats"`
	Roots []tracezRoot          `json:"roots"`
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	var tr *telemetry.Tracer
	if s.cfg.Tracer != nil {
		tr = s.cfg.Tracer()
	}
	if tr == nil {
		http.Error(w, "tracing disabled or no system live", http.StatusServiceUnavailable)
		return
	}
	max := 32
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := parseInt(v); err == nil && n > 0 {
			max = n
		}
	}
	roots := tr.Roots() // already deterministic: per op class, slowest first
	reply := tracezReply{Stats: tr.Stats()}
	for _, root := range roots {
		if len(reply.Roots) >= max {
			break
		}
		out := tracezRoot{
			Op:         root.Op().String(),
			Ino:        root.Ino(),
			Seq:        root.Seq(),
			StartNs:    int64(root.StartTime()),
			DurationNs: int64(root.Duration()),
			Dropped:    root.DroppedSpans(),
		}
		out.Spans, out.Categories = summarize(root, nil)
		reply.Roots = append(reply.Roots, out)
	}
	writeJSON(w, reply)
}

// summarize walks a span tree counting spans and folding child durations
// into per-category totals (the flat view of the critical-path report).
func summarize(sp *telemetry.Span, cats map[string]int64) (int, map[string]int64) {
	n := 1
	for _, c := range sp.Children() {
		if cats == nil {
			cats = make(map[string]int64)
		}
		cats[c.Cat().String()] += int64(c.Duration())
		var cn int
		cn, cats = summarize(c, cats)
		n += cn
	}
	return n, cats
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func parseInt(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}
