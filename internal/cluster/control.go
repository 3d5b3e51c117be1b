package cluster

import (
	"context"
	"fmt"
	"time"

	"snooze/api/v1/livebackend"
	"snooze/internal/coord"
	"snooze/internal/hierarchy"
	"snooze/internal/metrics"
	"snooze/internal/obs"
	"snooze/internal/simkernel"
	"snooze/internal/telemetry"
	"snooze/internal/transport"
	"snooze/internal/types"
)

// ControlConfig parameterizes NewControl. cmd/snoozed fills it from its flags,
// New from its Config.
type ControlConfig struct {
	// Managers is the number of manager processes, gm-00, gm-01, … at bus
	// addresses mgr:<id>; the election promotes one of them to GL.
	Managers int
	// Manager is the template of every manager's config; ID, Addr, Metrics,
	// Telemetry and Tracer are filled per manager.
	Manager hierarchy.ManagerConfig
	// PerManager, when non-nil, finishes each manager's config before the
	// manager is built, and its error aborts the build. cmd/snoozed gives each
	// manager its own policy instances here: the round-robin policies keep
	// cursor state.
	PerManager func(*hierarchy.ManagerConfig) error
	// EPs are the entry points' bus addresses (default ["ep:0"]).
	EPs []transport.Address
	// Metrics receives every component's counters (created when nil).
	Metrics *metrics.Registry
	// Telemetry is the hub every manager feeds and /v1 reads; when nil one is
	// created from Hub, with Metrics.
	Telemetry *telemetry.Hub
	Hub       telemetry.Options
	// Tracer records every manager's decision spans; when nil one is created
	// that samples every TraceSample-th trace, is clocked by the runtime and
	// journals each finished span as a decision.trace event on the hub.
	Tracer      *obs.Tracer
	TraceSample int
	// CallTimeout and Wait configure the /v1 backend (livebackend.Config).
	CallTimeout time.Duration
	Wait        func(ctx context.Context, send func(), replied func() bool) error
}

// Control is the control plane of one deployment: the coordination service,
// the managers electing a GL among themselves, the entry points and the /v1
// backend over them, sharing one metrics registry, telemetry hub and decision
// tracer. A snoozed control process runs one; so does every simulated
// cluster.
type Control struct {
	Coord    *coord.Service
	Managers []*hierarchy.Manager
	EPs      []*hierarchy.EP
	// Backend serves /v1 by asking the hierarchy over the bus.
	Backend   *livebackend.Backend
	Metrics   *metrics.Registry
	Telemetry *telemetry.Hub
	Tracer    *obs.Tracer

	rt  simkernel.Runtime
	bus *transport.Bus
	cfg ControlConfig
}

// NewControl builds and starts a control plane on rt and bus: managers first,
// in ID order, then the entry points, then the /v1 backend.
func NewControl(rt simkernel.Runtime, bus *transport.Bus, cfg ControlConfig) (*Control, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Telemetry == nil {
		cfg.Hub.Metrics = cfg.Metrics
		cfg.Telemetry = telemetry.NewHub(cfg.Hub)
	}
	if cfg.Tracer == nil {
		hub := cfg.Telemetry
		cfg.Tracer = obs.New(obs.Config{
			Sample:  cfg.TraceSample,
			Now:     rt.Now,
			Metrics: cfg.Metrics,
			Emit: func(entity string, attrs map[string]string) {
				hub.Emit(telemetry.EventDecisionTrace, entity, rt.Now(), telemetry.AttrsFromMap(attrs))
			},
		})
	}
	if len(cfg.EPs) == 0 {
		cfg.EPs = []transport.Address{"ep:0"}
	}
	c := &Control{
		Coord:     coord.NewService(rt),
		Metrics:   cfg.Metrics,
		Telemetry: cfg.Telemetry,
		Tracer:    cfg.Tracer,
		rt:        rt,
		bus:       bus,
		cfg:       cfg,
	}
	for i := 0; i < cfg.Managers; i++ {
		if _, err := c.addManager(types.GroupManagerID(fmt.Sprintf("gm-%02d", i))); err != nil {
			return nil, err
		}
	}
	for _, addr := range cfg.EPs {
		ep := hierarchy.NewEP(rt, bus, addr, 0)
		ep.Start()
		c.EPs = append(c.EPs, ep)
	}
	c.Backend = livebackend.New(livebackend.Config{
		Bus:         bus,
		EPs:         cfg.EPs,
		CallTimeout: cfg.CallTimeout,
		Metrics:     cfg.Metrics,
		Telemetry:   cfg.Telemetry,
		Now:         rt.Now,
		Tracer:      cfg.Tracer,
		Wait:        cfg.Wait,
	})
	return c, nil
}

// addManager builds and starts one more manager from the template, at bus
// address mgr:<id>.
func (c *Control) addManager(id types.GroupManagerID) (*hierarchy.Manager, error) {
	mcfg := c.cfg.Manager
	mcfg.ID = id
	mcfg.Addr = transport.Address("mgr:" + string(id))
	mcfg.Metrics = c.Metrics
	mcfg.Telemetry = c.Telemetry
	mcfg.Tracer = c.Tracer
	if c.cfg.PerManager != nil {
		if err := c.cfg.PerManager(&mcfg); err != nil {
			return nil, err
		}
	}
	m := hierarchy.NewManager(c.rt, c.bus, c.Coord, mcfg)
	if err := m.Start(); err != nil {
		return nil, fmt.Errorf("manager %s: %w", id, err)
	}
	c.Managers = append(c.Managers, m)
	return m, nil
}
