package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/collab"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// FileConfig is the JSON schema for declaratively defined sites: the
// world (zones, route graph, weather script), the constituents with
// their roles and haul loops, the interaction class, and the fault
// schedule. See examples/custom/site.json.
type FileConfig struct {
	Name  string          `json:"name"`
	Seed  int64           `json:"seed"`
	Zones []ZoneConfig    `json:"zones"`
	Nodes []NodeConfig    `json:"nodes"`
	Edges [][2]string     `json:"edges"`
	Fleet []VehicleConfig `json:"fleet"`
	// Policy is the interaction class: baseline, status_sharing,
	// intent_sharing or coordinated (richer classes are composed
	// programmatically).
	Policy  string          `json:"policy"`
	Faults  []FaultConfig   `json:"faults"`
	Weather []WeatherConfig `json:"weather"`
}

// ZoneConfig declares one rectangular zone.
type ZoneConfig struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	Min      [2]float64 `json:"min"`
	Max      [2]float64 `json:"max"`
	Capacity int        `json:"capacity,omitempty"`
	Risk     float64    `json:"risk,omitempty"`
}

// NodeConfig declares one route-graph waypoint.
type NodeConfig struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// VehicleConfig declares one constituent.
type VehicleConfig struct {
	ID   string  `json:"id"`
	Kind string  `json:"kind"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// Role and Requires feed the dependency model (coordinated).
	Role     string   `json:"role,omitempty"`
	Requires []string `json:"requires,omitempty"`
	// Loop is the haul cycle over node IDs; empty keeps the vehicle
	// stationary (e.g. a digger).
	Loop []string `json:"loop,omitempty"`
	// Deposits marks loop nodes that credit a delivery.
	Deposits []string `json:"deposits,omitempty"`
	// ServiceNodes marks loop nodes requiring service before
	// departing; the gate is "any tooled constituent is operational".
	ServiceNodes []string `json:"serviceNodes,omitempty"`
	SpeedMS      float64  `json:"speedMs,omitempty"`
	Goal         string   `json:"goal,omitempty"`
}

// FaultConfig declares one scheduled fault.
type FaultConfig struct {
	Target         string  `json:"target"`
	Kind           string  `json:"kind"`
	Detail         string  `json:"detail,omitempty"`
	Severity       float64 `json:"severity,omitempty"` // default 1
	AtSeconds      float64 `json:"atSeconds"`
	Permanent      bool    `json:"permanent"`
	ClearAtSeconds float64 `json:"clearAtSeconds,omitempty"`
}

// WeatherConfig declares one scripted weather change.
type WeatherConfig struct {
	AtSeconds    float64 `json:"atSeconds"`
	Condition    string  `json:"condition"`
	TemperatureC float64 `json:"temperatureC"`
}

// CustomRig is a scenario built from a FileConfig.
type CustomRig struct {
	Name  string
	Model *core.DependencyModel

	Fleet // the vehicles in file order; Fleet.Hauls[i] drives vehicle i
}

// Load parses a FileConfig from JSON and builds the rig.
func Load(rd io.Reader) (*CustomRig, error) {
	var cfg FileConfig
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("scenario: parse config: %w", err)
	}
	return Build(cfg)
}

// Build assembles a rig from an in-memory FileConfig. Every name the
// config references must resolve: edges, haul loops, deposits and
// service nodes name declared nodes, and faults target fleet members.
func Build(cfg FileConfig) (*CustomRig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("scenario: config %q has no fleet", cfg.Name)
	}
	w := world.New()
	for _, z := range cfg.Zones {
		kind, err := world.ParseZoneKind(z.Kind)
		if err != nil {
			return nil, err
		}
		if err := w.AddZone(world.Zone{
			ID: z.ID, Kind: kind, Capacity: z.Capacity, Risk: z.Risk,
			Area: geom.NewRect(geom.V(z.Min[0], z.Min[1]), geom.V(z.Max[0], z.Max[1])),
		}); err != nil {
			return nil, err
		}
	}
	g := w.Graph()
	for _, n := range cfg.Nodes {
		if _, dup := g.NodePos(n.ID); dup {
			return nil, fmt.Errorf("scenario: duplicate node %q", n.ID)
		}
		g.AddNode(n.ID, geom.V(n.X, n.Y))
	}
	for _, e := range cfg.Edges {
		if err := g.Connect(e[0], e[1]); err != nil {
			return nil, err
		}
	}

	net := comm.NewNetwork(comm.NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(cfg.Seed))

	rig := &CustomRig{Name: cfg.Name, Fleet: newFleet(w, net, cfg.Seed)}
	engine := rig.Engine
	engine.AddPreHook(net.Hook())
	rig.Model = core.NewDependencyModel()

	// Constituents.
	for _, vc := range cfg.Fleet {
		kind, err := vehicle.ParseKind(vc.Kind)
		if err != nil {
			return nil, err
		}
		if _, err := rig.join(core.Config{
			ID:    vc.ID,
			Spec:  vehicle.DefaultSpec(kind),
			Start: geom.Pose{Pos: geom.V(vc.X, vc.Y)},
			Goal:  vc.Goal,
		}); err != nil {
			return nil, err
		}
		role := vc.Role
		if role == "" {
			role = vc.Kind
		}
		if err := rig.Model.AddConstituent(vc.ID, role, vc.Requires...); err != nil {
			return nil, err
		}
	}

	toolersWork := func() bool {
		for _, c := range rig.cs {
			if c.Body().Spec().HasTool && c.Operational() {
				return true
			}
		}
		return false
	}

	// Haul agents.
	for i, vc := range cfg.Fleet {
		for _, ids := range [][]string{vc.Loop, vc.Deposits, vc.ServiceNodes} {
			for _, id := range ids {
				if _, ok := g.NodePos(id); !ok {
					return nil, fmt.Errorf("scenario: vehicle %q: %w: %q", vc.ID, world.ErrUnknownNode, id)
				}
			}
		}
		hc := agent.Config{
			C:     rig.cs[i],
			World: w,
			Loop:  vc.Loop,
			Speed: vc.SpeedMS,
		}
		if hc.Speed <= 0 {
			hc.Speed = 8
		}
		if len(vc.Deposits) > 0 {
			hc.DepositNodes = make(map[string]bool, len(vc.Deposits))
			for _, d := range vc.Deposits {
				hc.DepositNodes[d] = true
			}
		}
		if len(vc.ServiceNodes) > 0 {
			hc.ServiceNodes = make(map[string]bool, len(vc.ServiceNodes))
			for _, sn := range vc.ServiceNodes {
				hc.ServiceNodes[sn] = true
			}
			hc.ServiceTime = 3 * time.Second
			hc.ServiceGate = toolersWork
		}
		if err := rig.haul(hc); err != nil {
			return nil, err
		}
	}

	// Policy.
	switch cfg.Policy {
	case "", "baseline":
	case "status_sharing":
		for _, h := range rig.Hauls {
			if err := engine.Register(coop.NewStatusSharing(rig.base(h, time.Second))); err != nil {
				return nil, err
			}
		}
	case "intent_sharing":
		for _, h := range rig.Hauls {
			if err := engine.Register(coop.NewIntentSharing(rig.base(h, time.Second))); err != nil {
				return nil, err
			}
		}
	case "coordinated":
		for _, h := range rig.Hauls {
			if err := engine.Register(collab.NewCoordinated(rig.base(h, time.Second), rig.Model)); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("scenario: config policy %q not supported (use baseline, status_sharing, intent_sharing or coordinated)", cfg.Policy)
	}

	// Weather script.
	if len(cfg.Weather) > 0 {
		changes := make([]world.WeatherChange, 0, len(cfg.Weather))
		for _, wc := range cfg.Weather {
			cond, err := world.ParseCondition(wc.Condition)
			if err != nil {
				return nil, err
			}
			changes = append(changes, world.WeatherChange{
				At:           time.Duration(wc.AtSeconds * float64(time.Second)),
				Condition:    cond,
				TemperatureC: wc.TemperatureC,
			})
		}
		sched, err := world.NewWeatherSchedule(changes...)
		if err != nil {
			return nil, err
		}
		engine.AddPreHook(func(env *sim.Env) { sched.Apply(w, env.Clock.Now()) })
	}

	// Metrics and faults.
	faults := make([]fault.Fault, len(cfg.Faults))
	for i, fc := range cfg.Faults {
		kind, err := fault.ParseKind(fc.Kind)
		if err != nil {
			return nil, err
		}
		sev := fc.Severity
		if sev == 0 {
			sev = 1
		}
		faults[i] = fault.Fault{
			ID: fmt.Sprintf("cfg-%d", i), Target: fc.Target, Kind: kind,
			Detail: fc.Detail, Severity: sev, Permanent: fc.Permanent,
			At:      time.Duration(fc.AtSeconds * float64(time.Second)),
			ClearAt: time.Duration(fc.ClearAtSeconds * float64(time.Second)),
		}
	}
	if err := rig.instrument(nil, faults); err != nil {
		return nil, err
	}
	return rig, nil
}
