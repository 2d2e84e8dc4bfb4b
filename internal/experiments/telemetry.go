package experiments

import (
	"fmt"
	"sync"

	crossprefetch "repro"
	"repro/internal/telemetry"
)

// The experiment runners build systems through the newSys choke point, so
// a process-wide switch is enough to thread telemetry through every cell
// without touching each runner's signature. crossbench flips it with
// -telemetry; the default keeps experiment systems recorder-free.
var (
	telMu       sync.Mutex
	telOn       bool
	telTraceCfg *TraceConfig
	telSystems  []telemetrySystem
)

type telemetrySystem struct {
	label string
	sys   *crossprefetch.System
}

// EnableTelemetry turns cross-layer telemetry on (or off) for systems
// built by subsequent experiment runs. Each such system is registered so
// DrainTelemetry can audit and snapshot it after its workload finishes.
func EnableTelemetry(on bool) {
	telMu.Lock()
	defer telMu.Unlock()
	telOn = on
	if !on {
		telSystems = nil
	}
}

// TraceConfig configures span tracing for systems built by experiment
// runs (crossbench -trace).
type TraceConfig struct {
	SampleEvery int64
	PerInode    bool
	Seed        int64
}

// EnableTracing turns span tracing on (nil disables) for systems built by
// subsequent experiment runs. Tracing implies telemetry: the audit's
// spans-vs-counters reconciliation needs both.
func EnableTracing(cfg *TraceConfig) {
	telMu.Lock()
	defer telMu.Unlock()
	telTraceCfg = cfg
	if cfg != nil {
		telOn = true
	}
}

func telemetryEnabled() bool {
	telMu.Lock()
	defer telMu.Unlock()
	return telOn
}

func traceConfig() *TraceConfig {
	telMu.Lock()
	defer telMu.Unlock()
	return telTraceCfg
}

func registerTelemetry(label string, sys *crossprefetch.System) {
	telMu.Lock()
	defer telMu.Unlock()
	telSystems = append(telSystems, telemetrySystem{label: label, sys: sys})
}

// TelemetryResult is one audited per-system snapshot.
type TelemetryResult struct {
	Label    string
	Audit    error // nil when every cross-layer invariant reconciled
	Snapshot *telemetry.Snapshot
	Tracer   *telemetry.Tracer // nil unless tracing was enabled
}

// DrainTelemetry audits and snapshots every system registered since the
// last drain, then clears the registry. Call it after a runner returns:
// the simulation's inline worker pool guarantees no background work is
// still mutating counters.
func DrainTelemetry() []TelemetryResult {
	telMu.Lock()
	pending := telSystems
	telSystems = nil
	telMu.Unlock()

	out := make([]TelemetryResult, 0, len(pending))
	for _, ts := range pending {
		out = append(out, TelemetryResult{
			Label:    ts.label,
			Audit:    ts.sys.AuditTelemetry(),
			Snapshot: ts.sys.Metrics().Telemetry,
			Tracer:   ts.sys.Tracer(),
		})
	}
	return out
}

func sysLabel(c crossprefetch.Config) string {
	l := fmt.Sprintf("%v/%s", c.Approach, mb(c.MemoryBytes))
	if c.Device.Name != "" {
		l += "/" + c.Device.Name
	}
	if c.Plug {
		l += "/plug"
	}
	return l
}
