package collab

import (
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/core"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/tms"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// rerouteRig builds an orchestrated member on a diamond graph with a
// tunnel over the direct route.
func rerouteRig(t *testing.T, gateWorld bool) (*Orchestrated, *core.Constituent, *sim.Engine, *comm.Network) {
	t.Helper()
	w := world.New()
	g := w.Graph()
	g.AddNode("a", geom.V(0, 0))
	g.AddNode("m", geom.V(100, 0))
	g.AddNode("b", geom.V(200, 0))
	g.AddNode("alt", geom.V(100, 80))
	g.MustConnect("a", "m")
	g.MustConnect("m", "b")
	g.MustConnect("a", "alt")
	g.MustConnect("alt", "b")
	w.MustAddZone(world.Zone{ID: "tunnel", Kind: world.ZoneTunnel,
		Area: geom.NewRect(geom.V(20, -5), geom.V(180, 5))})

	net := comm.NewNetwork(comm.NetConfig{}, sim.NewRNG(1))
	net.MustRegister("member")
	net.MustRegister("tms")
	c := core.MustConstituent(core.Config{
		ID: "member", Spec: vehicle.DefaultSpec(vehicle.KindTruck),
		Start: geom.Pose{Pos: geom.V(0, 0)}, World: w, Net: net,
	})
	o := NewOrchestrated(c, net, g, "tms")
	if gateWorld {
		o.World = w
	}
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.AddPreHook(net.Hook())
	e.MustRegister(c)
	e.MustRegister(o)
	return o, c, e, net
}

func rerouteMsg(x, y float64) comm.Message {
	return comm.NewMessage("tms", "member", comm.TypeCommand, comm.TopicCommandRoute,
		&comm.Body{Pos: comm.WirePos(geom.V(x, y)), HasPos: true,
			Fields: map[string]string{comm.KeyAvoid: "m"}})
}

func TestOrchestratedRerouteBlocksTunnelEdge(t *testing.T) {
	o, _, e, net := rerouteRig(t, true)
	net.Send(rerouteMsg(60, 0)) // wreck on a-m inside the tunnel
	e.RunFor(time.Second)
	if !o.avoidEdges[[2]string{"a", "m"}] {
		t.Error("edge a-m should be avoided")
	}
	if o.avoid["m"] {
		t.Error("node m is far from the wreck")
	}
}

func TestOrchestratedRerouteIgnoresPassable(t *testing.T) {
	o, _, e, net := rerouteRig(t, true)
	net.Send(rerouteMsg(50, 40)) // on a-alt, outside the tunnel
	e.RunFor(time.Second)
	if len(o.avoidEdges) != 0 || len(o.avoid) != 0 {
		t.Error("non-tunnel blockage must not block the graph")
	}
}

func TestOrchestratedRerouteFallsBackToNode(t *testing.T) {
	o, _, e, net := rerouteRig(t, true)
	// No position payload: fall back to the named node.
	net.Send(comm.NewMessage("tms", "member", comm.TypeCommand, comm.TopicCommandRoute,
		&comm.Body{Fields: map[string]string{comm.KeyAvoid: "m"}}))
	e.RunFor(time.Second)
	if !o.avoid["m"] {
		t.Error("node fallback not applied")
	}
}

func TestOrchestratedTaskExecution(t *testing.T) {
	o, c, e, net := rerouteRig(t, true)
	net.Send(comm.NewMessage("tms", "member", comm.TypeTask, comm.TopicTaskAssign,
		&comm.Body{Fields: map[string]string{comm.KeyTask: "job-1", "from": "a", "to": "b"}}))
	e.RunFor(2 * time.Second)
	if o.Task() != "job-1" {
		t.Fatalf("task = %q", o.Task())
	}
	e.RunFor(2 * time.Minute)
	if o.Task() != "" {
		t.Errorf("task not completed, still %q (pos %v)", o.Task(), c.Body().Position())
	}
	// The completion report reached the TMS endpoint.
	done := false
	for _, m := range net.Receive("tms") {
		if m.Topic == comm.TopicTaskDone && m.Get(comm.KeyTask) == "job-1" {
			done = true
		}
	}
	if !done {
		t.Error("TaskDone report missing")
	}
}

func TestDirectorReassignsAndTracksModes(t *testing.T) {
	// Exercise the Director against scripted beacons, without full
	// scenario machinery.
	net := comm.NewNetwork(comm.NetConfig{}, sim.NewRNG(1))
	net.MustRegister("tms")
	net.MustRegister("t1")
	board := tms.NewBoard()
	board.MustAdd(tms.Task{ID: "j1", RequiredRole: "truck", Units: 1, From: "a", To: "b"})
	model := core.NewDependencyModel()
	model.MustAddConstituent("t1", "truck")
	d := NewDirector("tms", net, board, model)
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	e.AddPreHook(net.Hook())
	e.MustRegister(d)

	beacon := func(mode string) {
		net.Send(comm.NewMessage("t1", comm.Broadcast, comm.TypeStatus, comm.TopicStatus,
			&comm.Body{HasPos: true, Mode: mode, Node: "a"}))
	}
	beacon("nominal")
	e.RunFor(time.Second)
	if d.Mode("t1") != "nominal" {
		t.Error("mode not tracked")
	}
	if got := board.AssignedTo("t1"); len(got) != 1 {
		t.Fatalf("assignment missing: %v", got)
	}
	// The member dies: its task must be requeued.
	beacon("mrc")
	e.RunFor(time.Second)
	if got := board.AssignedTo("t1"); len(got) != 0 {
		t.Errorf("task still assigned to the dead member: %v", got)
	}
	if st := board.Stats(); st.Queued+st.Aborted != 1 {
		t.Errorf("board stats = %+v", st)
	}
}
