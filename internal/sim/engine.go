package sim

import (
	"errors"
	"fmt"
	"time"
)

// Entity is anything stepped by the engine once per tick: vehicles,
// coordinators, a TMS, weather processes, monitors.
type Entity interface {
	// ID returns a unique, stable identifier. Entities are stepped in
	// registration order, so IDs exist for logging and lookup, not
	// ordering.
	ID() string
	// Step advances the entity by one tick.
	Step(env *Env)
}

// Env is the per-run environment handed to entities and hooks.
type Env struct {
	Clock *Clock
	RNG   *RNG
	Log   *EventLog
}

// Emit appends an event stamped with the current simulated time.
func (e *Env) Emit(kind EventKind, subject, detail string) {
	e.Log.Append(Event{
		Time:    e.Clock.Now(),
		Tick:    e.Clock.Tick(),
		Kind:    kind,
		Subject: subject,
		Detail:  detail,
	})
}

// EmitFields appends an event with extra key/value fields. The map is
// copied: the log owns its entries, so a caller mutating (or reusing)
// the map after the emit cannot retroactively corrupt recorded
// history. A nil map stays nil.
func (e *Env) EmitFields(kind EventKind, subject, detail string, fields map[string]string) {
	var copied map[string]string
	if fields != nil {
		copied = make(map[string]string, len(fields))
		for k, v := range fields {
			copied[k] = v
		}
	}
	e.Log.Append(Event{
		Time:    e.Clock.Now(),
		Tick:    e.Clock.Tick(),
		Kind:    kind,
		Subject: subject,
		Detail:  detail,
		Fields:  copied,
	})
}

// Hook runs once per tick, before (pre) or after (post) entity steps.
// Typical uses: message delivery, fault injection, metric sampling.
type Hook func(env *Env)

// StopCondition ends the run early when it returns true (checked after
// each tick).
type StopCondition func(env *Env) bool

// ErrNoProgress is returned when the engine reaches MaxTime without
// any stop condition firing; callers that expect convergence can treat
// it as a failure, others as normal termination.
var ErrNoProgress = errors.New("sim: reached max time without stop condition")

// Config configures an engine run.
type Config struct {
	Step    time.Duration // tick length; default 100 ms
	MaxTime time.Duration // hard cap on simulated time; default 10 min
	Seed    int64         // RNG seed; default 1
}

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 100 * time.Millisecond
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 10 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Engine drives a deterministic fixed-step simulation.
type Engine struct {
	cfg      Config
	env      *Env
	entities []Entity
	byID     map[string]Entity
	pre      []Hook
	post     []Hook
	stops    []StopCondition
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg: cfg,
		env: &Env{
			Clock: NewClock(cfg.Step),
			RNG:   NewRNG(cfg.Seed),
			Log:   NewEventLog(),
		},
		byID: make(map[string]Entity),
	}
}

// Env exposes the run environment (for wiring before Run and for
// inspection after).
func (e *Engine) Env() *Env { return e.env }

// Reset returns the engine to its just-constructed state under a new
// seed, retaining backing allocations: the clock rewinds, the RNG
// reseeds in place to exactly NewRNG(seed)'s stream, the event log
// truncates with capacity kept, and every registration — entities,
// hooks, stop conditions — is dropped for the rig to re-wire in
// construction order. A reset engine is observationally identical to
// NewEngine with the same config and seed; the warm-rig differential
// tests hold that at the byte level.
func (e *Engine) Reset(seed int64) {
	if seed == 0 {
		seed = 1 // Config.withDefaults' seed rule
	}
	e.cfg.Seed = seed
	e.env.Clock.Reset()
	e.env.RNG.Reseed(seed)
	e.env.Log.Reset()
	clear(e.entities)
	e.entities = e.entities[:0]
	clear(e.byID)
	clear(e.pre)
	e.pre = e.pre[:0]
	clear(e.post)
	e.post = e.post[:0]
	clear(e.stops)
	e.stops = e.stops[:0]
}

// Register adds an entity. Registering two entities with the same ID
// is an error.
func (e *Engine) Register(ent Entity) error {
	id := ent.ID()
	if id == "" {
		return errors.New("sim: entity has empty ID")
	}
	if _, dup := e.byID[id]; dup {
		return fmt.Errorf("sim: duplicate entity ID %q", id)
	}
	e.byID[id] = ent
	e.entities = append(e.entities, ent)
	return nil
}

// MustRegister is Register that panics on error, for scenario
// construction where IDs are statically unique.
func (e *Engine) MustRegister(ent Entity) {
	if err := e.Register(ent); err != nil {
		panic(err)
	}
}

// Lookup returns the entity with the given ID, if registered.
func (e *Engine) Lookup(id string) (Entity, bool) {
	ent, ok := e.byID[id]
	return ent, ok
}

// Entities returns the registered entities in step order.
func (e *Engine) Entities() []Entity {
	out := make([]Entity, len(e.entities))
	copy(out, e.entities)
	return out
}

// AddPreHook registers a hook that runs before entity steps each tick.
func (e *Engine) AddPreHook(h Hook) { e.pre = append(e.pre, h) }

// AddPostHook registers a hook that runs after entity steps each tick.
func (e *Engine) AddPostHook(h Hook) { e.post = append(e.post, h) }

// AddStopCondition registers a condition that ends the run when true.
func (e *Engine) AddStopCondition(s StopCondition) { e.stops = append(e.stops, s) }

// Run executes ticks until a stop condition fires or MaxTime elapses.
// It returns ErrNoProgress in the latter case (with the log intact).
func (e *Engine) Run() error {
	for e.env.Clock.Now() < e.cfg.MaxTime {
		e.RunTick()
		for _, s := range e.stops {
			if s(e.env) {
				return nil
			}
		}
	}
	if len(e.stops) == 0 {
		return nil // time-bounded run; finishing MaxTime is success
	}
	return ErrNoProgress
}

// RunTick executes exactly one tick: pre hooks, entity steps in
// registration order, post hooks, then the clock advances, all on the
// calling goroutine.
func (e *Engine) RunTick() {
	for _, h := range e.pre {
		h(e.env)
	}
	for _, ent := range e.entities {
		ent.Step(e.env)
	}
	for _, h := range e.post {
		h(e.env)
	}
	e.env.Clock.Advance()
}

// RunFor executes ticks until the given additional simulated duration
// has elapsed (ignoring stop conditions), useful in tests.
func (e *Engine) RunFor(d time.Duration) {
	deadline := e.env.Clock.Now() + d
	for e.env.Clock.Now() < deadline {
		e.RunTick()
	}
}
