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
	// registration order, so IDs exist for logging, not ordering.
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

// Config configures an engine run.
type Config struct {
	Step time.Duration // tick length; default 100 ms
	Seed int64         // RNG seed; default 1
}

func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Engine drives a deterministic fixed-step simulation.
type Engine struct {
	env      *Env
	entities []Entity
	ids      map[string]struct{}
	pre      []Hook
	post     []Hook
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		env: &Env{
			Clock: NewClock(cfg.Step),
			RNG:   NewRNG(cfg.Seed),
			Log:   NewEventLog(),
		},
		ids: make(map[string]struct{}),
	}
}

// Env exposes the run environment (for wiring before a run and for
// inspection after).
func (e *Engine) Env() *Env { return e.env }

// Reset returns the engine to its just-constructed state under a new
// seed, retaining backing allocations: the clock rewinds, the RNG
// reseeds in place to exactly NewRNG(seed)'s stream, the event log
// truncates with capacity kept, and every registration — entities and
// hooks — is dropped for the rig to re-wire in construction order. A
// reset engine is observationally identical to NewEngine with the same
// config and seed; the warm-rig differential tests hold that at the
// byte level.
func (e *Engine) Reset(seed int64) {
	if seed == 0 {
		seed = 1 // Config.withDefaults' seed rule
	}
	e.env.Clock.Reset()
	e.env.RNG.Reseed(seed)
	e.env.Log.Reset()
	clear(e.entities)
	e.entities = e.entities[:0]
	clear(e.ids)
	clear(e.pre)
	e.pre = e.pre[:0]
	clear(e.post)
	e.post = e.post[:0]
}

// Register adds an entity. Registering two entities with the same ID
// is an error.
func (e *Engine) Register(ent Entity) error {
	id := ent.ID()
	if id == "" {
		return errors.New("sim: entity has empty ID")
	}
	if _, dup := e.ids[id]; dup {
		return fmt.Errorf("sim: duplicate entity ID %q", id)
	}
	e.ids[id] = struct{}{}
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
// has elapsed: the horizon every experiment and rig runs to.
func (e *Engine) RunFor(d time.Duration) {
	deadline := e.env.Clock.Now() + d
	for e.env.Clock.Now() < deadline {
		e.RunTick()
	}
}
