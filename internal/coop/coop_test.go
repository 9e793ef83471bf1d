package coop

import (
	"testing"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sensor"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// rig is a mine-like site with three trucks hauling load->dep, a
// tunnel node "mid" with an alternate route, a pocket and a parking
// area.
type rig struct {
	e      *sim.Engine
	w      *world.World
	net    *comm.Network
	trucks []*core.Constituent
	hauls  []*agent.HaulAgent
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	return newRigNet(t, n, comm.NetConfig{Latency: 50 * time.Millisecond})
}

// newRigNet is newRig on the given channel.
func newRigNet(t *testing.T, n int, cfg comm.NetConfig) *rig {
	t.Helper()
	w := world.New()
	g := w.Graph()
	g.AddNode("load", geom.V(0, 0))
	g.AddNode("mid", geom.V(150, 0))
	g.AddNode("dep", geom.V(300, 0))
	g.AddNode("alt", geom.V(150, 120))
	g.MustConnect("load", "mid")
	g.MustConnect("mid", "dep")
	g.MustConnect("load", "alt")
	g.MustConnect("alt", "dep")
	w.MustAddZone(world.Zone{ID: "tunnel", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(100, -5), geom.V(200, 5))})
	w.MustAddZone(world.Zone{ID: "pocket", Kind: world.ZonePocket,
		Area: geom.NewRect(geom.V(140, 8), geom.V(160, 16))})
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(-60, -60), geom.V(-20, -20))})

	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	net := comm.NewNetwork(cfg, sim.NewRNG(7))
	e.AddPreHook(net.Hook())

	r := &rig{e: e, w: w, net: net}
	ids := []string{"t1", "t2", "t3", "t4", "t5"}[:n]
	for i, id := range ids {
		net.MustRegister(id)
		c := core.MustConstituent(core.Config{
			ID:    id,
			Spec:  vehicle.DefaultSpec(vehicle.KindTruck),
			Start: geom.Pose{Pos: geom.V(float64(-10*i), 0)},
			World: w,
			Net:   net,
		})
		e.MustRegister(c)
		r.trucks = append(r.trucks, c)
	}
	for i := range r.trucks {
		i := i
		h := agent.New(agent.Config{
			C:            r.trucks[i],
			Graph:        g,
			Loop:         []string{"dep", "load"},
			DepositNodes: map[string]bool{"dep": true},
			Speed:        8,
			Neighbors: func(_, _ geom.Vec2) []sensor.Target {
				var ts []sensor.Target
				for j, o := range r.trucks {
					if j != i {
						ts = append(ts, sensor.Target{ID: o.ID(), Pos: o.Body().Position()})
					}
				}
				return ts
			},
		})
		e.MustRegister(h)
		r.hauls = append(r.hauls, h)
	}
	return r
}

func TestStatusSharingReroutesAroundMRC(t *testing.T) {
	r := newRig(t, 3)
	for i := range r.trucks {
		r.e.MustRegister(NewStatusSharing(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second)))
	}
	// Strand t1 in the tunnel: teleport to mid and blind it so the
	// only feasible MRC is the in-place stop.
	r.trucks[0].Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	r.e.RunFor(10 * time.Second)
	if !r.trucks[0].InMRC() {
		t.Fatalf("t1 mode = %v", r.trucks[0].Mode())
	}
	// Beacons must have told the others to avoid "mid".
	for i := 1; i < 3; i++ {
		if !r.hauls[i].Avoided("mid") {
			t.Errorf("truck %d does not avoid mid", i)
		}
	}
	// Productivity continues around the tunnel.
	before := r.hauls[1].Delivered() + r.hauls[2].Delivered()
	r.e.RunFor(3 * time.Minute)
	after := r.hauls[1].Delivered() + r.hauls[2].Delivered()
	if after <= before {
		t.Errorf("no deliveries after reroute: %v -> %v", before, after)
	}
	// No collision with the stranded truck.
	if r.e.Env().Log.Count(sim.EventCollision) != 0 {
		t.Error("status-sharing should prevent collisions with the stranded truck")
	}
}

func TestStatusSharingUnavoidsOnRecovery(t *testing.T) {
	r := newRig(t, 2)
	for i := range r.trucks {
		r.e.MustRegister(NewStatusSharing(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second)))
	}
	r.trucks[0].Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	r.e.RunFor(10 * time.Second)
	if !r.hauls[1].Avoided("mid") {
		t.Fatal("setup: t2 should avoid mid")
	}
	r.trucks[0].Recover(r.e.Env())
	r.e.RunFor(5 * time.Second)
	if r.hauls[1].Avoided("mid") {
		t.Error("t2 should stop avoiding mid after t1 recovers")
	}
}

func TestBaselineWithoutSharingBlocks(t *testing.T) {
	// Same situation as the status-sharing test but with no policy:
	// the other trucks never learn about the blockage and pile up
	// behind the stranded one (obstacle hold keeps them safe but
	// unproductive on the direct route).
	r := newRig(t, 2)
	r.trucks[0].Body().Teleport(geom.Pose{Pos: geom.V(150, 0)})
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	r.e.RunFor(3 * time.Minute)
	if r.hauls[1].Avoided("mid") {
		t.Error("baseline truck cannot know about the blockage")
	}
	if !r.trucks[1].Holding() {
		t.Errorf("baseline truck should be held behind the stranded one; pos=%v",
			r.trucks[1].Body().Position())
	}
	if r.hauls[1].Delivered() > 1 {
		t.Errorf("baseline should be (nearly) blocked, delivered %v", r.hauls[1].Delivered())
	}
}

func TestIntentSharingSlowsNeighbours(t *testing.T) {
	r := newRig(t, 3)
	var pols []*IntentSharing
	for i := range r.trucks {
		p := NewIntentSharing(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second))
		r.e.MustRegister(p)
		pols = append(pols, p)
	}
	// Put t3 far away so it does not react.
	r.trucks[2].Body().Teleport(geom.Pose{Pos: geom.V(2000, 0)})
	r.e.RunFor(5 * time.Second)
	// t1 starts an MRM; the intent hook announces it.
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	r.e.RunFor(3 * time.Second)
	if pols[1].reactingTo == "" {
		t.Error("nearby truck should react to announced MRM")
	}
	if pols[2].reactingTo != "" {
		t.Error("distant truck should not react")
	}
	if !r.trucks[1].Assisting() {
		t.Error("reacting truck should be assisting")
	}
	// After t1 reaches MRC, the reaction ends (via beacon).
	r.e.RunFor(30 * time.Second)
	if pols[1].reactingTo != "" {
		t.Error("reaction should end after MRC confirmation")
	}
	if r.trucks[1].Assisting() {
		t.Error("assist should be released")
	}
}

func TestAgreementGrantedConcerted(t *testing.T) {
	r := newRig(t, 3)
	var pols []*AgreementSeeking
	peersOf := func(self string) []string {
		var out []string
		for _, c := range r.trucks {
			if c.ID() != self {
				out = append(out, c.ID())
			}
		}
		return out
	}
	for i := range r.trucks {
		p := NewAgreementSeeking(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second),
			peersOf(r.trucks[i].ID()))
		r.e.MustRegister(p)
		pols = append(pols, p)
	}
	r.e.RunFor(3 * time.Second)
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	// The request goes out and peers consent within a few ticks.
	r.e.RunFor(5 * time.Second)
	if !r.trucks[0].MRMActive() && !r.trucks[0].InMRC() {
		t.Fatal("MRM should proceed after agreement")
	}
	if got := r.trucks[0].MRMReason(); got == "" || !contains(got, "agreed") {
		t.Errorf("reason = %q, want agreed", got)
	}
	if _, ok := r.e.Env().Log.First(sim.EventMRMConcerted); !ok {
		t.Error("concerted event missing")
	}
	// Helpers assist until t1 reaches MRC, then release.
	r.e.RunFor(time.Minute)
	if !r.trucks[0].InMRC() {
		t.Fatal("t1 should reach MRC")
	}
	for i := 1; i < 3; i++ {
		if r.trucks[i].Assisting() {
			t.Errorf("truck %d still assisting after MRC", i)
		}
		if !r.trucks[i].Operational() {
			t.Errorf("truck %d should remain operational", i)
		}
	}
}

func TestAgreementTimeoutFallsBack(t *testing.T) {
	r := newRig(t, 2)
	pols := []*AgreementSeeking{
		NewAgreementSeeking(NewBase(r.hauls[0], r.net, r.w.Graph(), time.Second), []string{"t2"}),
		NewAgreementSeeking(NewBase(r.hauls[1], r.net, r.w.Graph(), time.Second), []string{"t1"}),
	}
	for _, p := range pols {
		r.e.MustRegister(p)
	}
	// t2's radio is dead: no ack will ever come.
	r.net.SetNodeDown("t2", true)
	r.e.RunFor(2 * time.Second)
	r.trucks[0].ApplyFault(fault.Fault{ID: "blind", Target: "t1", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	// While waiting for consent the MRM is deferred (the vehicle
	// crawls instead).
	r.e.RunFor(2 * time.Second)
	if r.trucks[0].MRMActive() || r.trucks[0].InMRC() {
		t.Fatal("MRM should be deferred during the agreement window")
	}
	if r.trucks[0].SpeedCap() > 2 {
		t.Errorf("deferred vehicle should crawl, cap = %v", r.trucks[0].SpeedCap())
	}
	// The retry schedule is deterministic: 3s + 6s + 12s of attempt
	// timeouts before the give-up instant, so run well past 21s.
	r.e.RunFor(40 * time.Second)
	if !r.trucks[0].MRMActive() && !r.trucks[0].InMRC() {
		t.Fatal("fallback MRM should trigger after timeout")
	}
	if got := r.trucks[0].MRMReason(); !contains(got, "no agreement") {
		t.Errorf("reason = %q, want no-agreement fallback", got)
	}
	if r.trucks[0].CurrentMRC().ID != "in_place" {
		t.Errorf("fallback MRC = %v, want in_place", r.trucks[0].CurrentMRC().ID)
	}
}

func TestAgreementEvacuationOrdered(t *testing.T) {
	r := newRig(t, 3)
	var pols []*AgreementSeeking
	peersOf := func(self string) []string {
		var out []string
		for _, c := range r.trucks {
			if c.ID() != self {
				out = append(out, c.ID())
			}
		}
		return out
	}
	for i := range r.trucks {
		p := NewAgreementSeeking(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second),
			peersOf(r.trucks[i].ID()))
		r.e.MustRegister(p)
		pols = append(pols, p)
	}
	r.e.RunFor(2 * time.Second)
	pols[1].DeclareEvacuation(r.e.Env()) // fire detected by t2
	r.e.RunFor(10 * time.Second)
	for _, p := range pols {
		if !p.evacuating {
			t.Fatalf("%s not evacuating", p.ID())
		}
	}
	r.e.RunFor(5 * time.Minute)
	for i, c := range r.trucks {
		if !c.InMRC() {
			t.Fatalf("truck %d not in MRC (mode %v)", i, c.Mode())
		}
	}
	// Global MRC achieved in the agreed (sorted) order.
	var order []string
	for _, ev := range r.e.Env().Log.ByKind(sim.EventMRCReached) {
		order = append(order, ev.Subject)
	}
	want := []string{"t1", "t2", "t3"}
	if len(order) != 3 {
		t.Fatalf("MRC events = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("evacuation order = %v, want %v", order, want)
			break
		}
	}
}

func TestPrescriptiveLocalAndGlobal(t *testing.T) {
	r := newRig(t, 3)
	auth := NewAuthority("control", r.net)
	r.net.MustRegister("control")
	r.e.MustRegister(auth)
	for i := range r.trucks {
		r.e.MustRegister(NewPrescriptive(NewBase(r.hauls[i], r.net, r.w.Graph(), time.Second)))
	}
	r.e.RunFor(3 * time.Second)
	if left := r.net.Receive("control"); len(left) != 0 {
		t.Errorf("authority left %d beacons in its inbox", len(left))
	}

	// Local: order t1 into the pocket (the paper's narrow-tunnel
	// example of a big machine directing a small one).
	auth.CommandMRC(r.e.Env(), "t1", "pocket", "large vehicle needs passage")
	r.e.RunFor(2 * time.Minute)
	if !r.trucks[0].InMRC() || r.trucks[0].CurrentMRC().ID != "pocket" {
		t.Fatalf("t1 MRC = %v mode %v, want pocket", r.trucks[0].CurrentMRC().ID, r.trucks[0].Mode())
	}
	if !r.trucks[1].Operational() || !r.trucks[2].Operational() {
		t.Error("local command must not stop the others")
	}

	// Global: flooding forces everyone to stop.
	auth.CommandAllMRC(r.e.Env(), "", "road flooded")
	r.e.RunFor(3 * time.Minute)
	for i, c := range r.trucks {
		if !c.InMRC() {
			t.Errorf("truck %d mode %v after global order", i, c.Mode())
		}
	}
	if _, ok := r.e.Env().Log.First(sim.EventMRCGlobal); !ok {
		t.Error("global command event missing")
	}
}

func TestPrescriptiveNonCompliantFallsBack(t *testing.T) {
	r := newRig(t, 1)
	auth := NewAuthority("control", r.net)
	r.net.MustRegister("control")
	r.e.MustRegister(auth)
	r.e.MustRegister(NewPrescriptive(NewBase(r.hauls[0], r.net, r.w.Graph(), time.Second)))
	r.e.RunFor(2 * time.Second)
	// Steering fails: the truck cannot reach the pocket.
	r.trucks[0].ApplyFault(fault.Fault{ID: "steer", Target: "t1", Kind: fault.KindSteering,
		Severity: 1, Permanent: true})
	auth.CommandMRC(r.e.Env(), "t1", "pocket", "clear the tunnel")
	r.e.RunFor(time.Minute)
	if !r.trucks[0].InMRC() {
		t.Fatalf("mode = %v", r.trucks[0].Mode())
	}
	if r.trucks[0].CurrentMRC().ID == "pocket" {
		t.Error("steering-failed truck cannot have reached the pocket; must fall back")
	}
}

func TestPrescriptiveRouteCommand(t *testing.T) {
	r := newRig(t, 1)
	auth := NewAuthority("control", r.net)
	r.net.MustRegister("control")
	r.e.MustRegister(auth)
	r.e.MustRegister(NewPrescriptive(NewBase(r.hauls[0], r.net, r.w.Graph(), time.Second)))
	r.e.RunFor(time.Second)
	r.net.Send(comm.NewMessage("control", "t1", comm.TypeCommand, comm.TopicCommandRoute,
		&comm.Body{Fields: map[string]string{comm.KeyAvoid: "mid", comm.KeyReason: "maintenance"}}))
	r.e.RunFor(2 * time.Second)
	if !r.hauls[0].Avoided("mid") {
		t.Error("route command ignored")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
