package collab

import (
	"strings"
	"testing"
	"time"

	"coopmrm/internal/agent"
	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/sim"
	"coopmrm/internal/tms"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

// quarry is the paper's running example: a digger loading trucks that
// haul to a deposit, with an alternate route and a parking area.
type quarry struct {
	e      *sim.Engine
	w      *world.World
	net    *comm.Network
	digger *core.Constituent
	trucks []*core.Constituent
	hauls  []*agent.HaulAgent // one per truck (digger has an empty-loop agent)
	dHaul  *agent.HaulAgent
	model  *core.DependencyModel
}

func newQuarry(t *testing.T, nTrucks int) *quarry {
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
	w.MustAddZone(world.Zone{ID: "park", Kind: world.ZoneParking,
		Area: geom.NewRect(geom.V(-80, -80), geom.V(-30, -30))})

	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	net := comm.NewNetwork(comm.NetConfig{Latency: 50 * time.Millisecond}, sim.NewRNG(11))
	e.AddPreHook(net.Hook())

	q := &quarry{e: e, w: w, net: net, model: core.NewDependencyModel()}

	net.MustRegister("digger")
	q.digger = core.MustConstituent(core.Config{
		ID:    "digger",
		Spec:  vehicle.DefaultSpec(vehicle.KindDigger),
		Start: geom.Pose{Pos: geom.V(5, 5)},
		World: w,
		Net:   net,
	})
	e.MustRegister(q.digger)
	q.model.MustAddConstituent("digger", "digger", "truck")
	q.dHaul = agent.New(agent.Config{C: q.digger, Graph: g})
	e.MustRegister(q.dHaul)

	names := []string{"truck1", "truck2", "truck3"}[:nTrucks]
	for i, id := range names {
		net.MustRegister(id)
		c := core.MustConstituent(core.Config{
			ID:    id,
			Spec:  vehicle.DefaultSpec(vehicle.KindTruck),
			Start: geom.Pose{Pos: geom.V(float64(-12*(i+1)), 0)},
			World: w,
			Net:   net,
		})
		e.MustRegister(c)
		q.trucks = append(q.trucks, c)
		q.model.MustAddConstituent(id, "truck", "digger")

		h := agent.New(agent.Config{
			C:            c,
			Graph:        g,
			Loop:         []string{"dep", "load"},
			DepositNodes: map[string]bool{"dep": true},
			Speed:        8,
			ServiceNodes: map[string]bool{"load": true},
			ServiceTime:  2 * time.Second,
			ServiceGate:  func() bool { return q.digger.Operational() },
		})
		e.MustRegister(h)
		q.hauls = append(q.hauls, h)
	}
	return q
}

// newWorldBase builds a Base wired like the production scenario: the
// world gate limits route blocking to tunnel zones.
func newWorldBase(q *quarry, h *agent.HaulAgent) *coop.Base {
	b := coop.NewBase(h, q.net, q.w.Graph(), time.Second)
	b.World = q.w
	return b
}

func blind(id string) fault.Fault {
	return fault.Fault{ID: "blind-" + id, Target: id, Kind: fault.KindSensor,
		Severity: 1, Permanent: true}
}

func TestCoordinatedLocalMRC(t *testing.T) {
	q := newQuarry(t, 2)
	q.e.MustRegister(NewCoordinated(newWorldBase(q, q.dHaul), q.model))
	for i := range q.trucks {
		q.e.MustRegister(NewCoordinated(newWorldBase(q, q.hauls[i]), q.model))
	}
	q.e.RunFor(30 * time.Second)
	// One truck fails: a local MRC — the rest continue.
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(30 * time.Second)
	if !q.trucks[0].InMRC() {
		t.Fatalf("truck1 mode = %v", q.trucks[0].Mode())
	}
	if !q.trucks[1].Operational() || !q.digger.Operational() {
		t.Error("survivors must continue on a local MRC")
	}
	before := q.hauls[1].Delivered()
	q.e.RunFor(2 * time.Minute)
	if q.hauls[1].Delivered() <= before {
		t.Error("surviving truck should keep delivering")
	}
}

func TestCoordinatedGlobalMRCOnDiggerLoss(t *testing.T) {
	q := newQuarry(t, 2)
	q.e.MustRegister(NewCoordinated(newWorldBase(q, q.dHaul), q.model))
	for i := range q.trucks {
		q.e.MustRegister(NewCoordinated(newWorldBase(q, q.hauls[i]), q.model))
	}
	q.e.RunFor(10 * time.Second)
	// The lone digger fails: trucks are stranded -> negotiated global
	// park-and-stop.
	q.digger.ApplyFault(blind("digger"))
	q.e.RunFor(5 * time.Minute)
	if !q.digger.InMRC() {
		t.Fatalf("digger mode = %v", q.digger.Mode())
	}
	for i, c := range q.trucks {
		if !c.InMRC() {
			t.Fatalf("truck %d mode = %v, want MRC (global)", i, c.Mode())
		}
		// Parked at the designated area, not stopped in place.
		if c.CurrentMRC().ID != "parking" {
			t.Errorf("truck %d MRC = %v, want parking", i, c.CurrentMRC().ID)
		}
	}
	if _, ok := q.e.Env().Log.First(sim.EventMRCGlobal); !ok {
		t.Error("global MRC event missing")
	}
}

func TestCoordinatedHumanLostCommonCause(t *testing.T) {
	// The paper's example: constituents must continuously track a
	// human; losing the link is a common-cause ODD exit for everyone.
	// Fault injection stands in for the link loss: the common cause
	// drives each to MRC.
	q := newQuarry(t, 2)
	in := fault.NewInjector(nil)
	in.RegisterHandler("digger", q.digger)
	in.RegisterHandler("truck1", q.trucks[0])
	in.RegisterHandler("truck2", q.trucks[1])
	root := fault.Fault{ID: "human-lost", Kind: fault.KindLocalization,
		Severity: 1, Permanent: true, At: 10 * time.Second}
	in.MustSchedule(fault.CommonCause(root, "digger", "truck1", "truck2")...)
	q.e.AddPreHook(in.Hook())
	q.e.RunFor(2 * time.Minute)
	for _, c := range append([]*core.Constituent{q.digger}, q.trucks...) {
		if !c.InMRC() {
			t.Errorf("%s mode = %v, want MRC (common cause)", c.ID(), c.Mode())
		}
	}
}

func TestChoreographedAlternateRoute(t *testing.T) {
	q := newQuarry(t, 2)
	board := NewCheckInBoard()
	pols := make([]*Choreographed, 2)
	for i := range q.trucks {
		watch := []string{"truck1", "truck2"}
		watch = append(watch[:i], watch[i+1:]...)
		p := NewChoreographed(q.hauls[i], board, watch)
		p.Deadline = 90 * time.Second
		p.Response = ResponseAlternateRoute
		p.AlternateAvoid = "mid"
		q.e.MustRegister(p)
		pols[i] = p
	}
	q.e.RunFor(80 * time.Second)
	if pols[0].triggered || pols[1].triggered {
		t.Fatal("no response should trigger while everyone checks in")
	}
	// truck1 dies silently (no comms exist in this class).
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(2 * time.Minute)
	if !pols[1].triggered {
		t.Fatal("truck2 should notice the missed check-in")
	}
	if !q.hauls[1].Avoided("mid") {
		t.Error("designed response should switch to the alternate route")
	}
	if !q.trucks[1].Operational() {
		t.Error("alternate-route response keeps survivors productive (local)")
	}
}

func TestChoreographedHalt(t *testing.T) {
	q := newQuarry(t, 2)
	board := NewCheckInBoard()
	var pol2 *Choreographed
	for i := range q.trucks {
		watch := []string{"truck1", "truck2"}
		watch = append(watch[:i], watch[i+1:]...)
		p := NewChoreographed(q.hauls[i], board, watch)
		p.Deadline = 90 * time.Second
		p.Response = ResponseHalt
		q.e.MustRegister(p)
		if i == 1 {
			pol2 = p
		}
	}
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(3 * time.Minute)
	if !pol2.triggered {
		t.Fatal("halt response should trigger")
	}
	if !q.trucks[1].InMRC() {
		t.Errorf("truck2 mode = %v, want MRC (designed global)", q.trucks[1].Mode())
	}
	if _, ok := q.e.Env().Log.First(sim.EventMRCGlobal); !ok {
		t.Error("designed global event missing")
	}
}

func TestResponseString(t *testing.T) {
	if ResponseHalt.String() != "halt" || Response(9).String() == "" {
		t.Error("response names wrong")
	}
}

func orchestratedRig(t *testing.T, nTasks int, concerted bool) (*quarry, *Director) {
	t.Helper()
	q := newQuarry(t, 2)
	board := tms.NewBoard()
	for i := 0; i < nTasks; i++ {
		board.MustAdd(tms.Task{
			ID:   "haul-" + string(rune('a'+i)),
			From: "load", To: "dep", Units: 1, RequiredRole: "truck",
		})
	}
	q.net.MustRegister("tms")
	d := NewDirector("tms", q.net, board, q.model)
	d.Concerted = concerted
	q.e.MustRegister(d)
	q.e.MustRegister(NewOrchestrated(q.digger, q.net, q.w.Graph(), "tms"))
	for _, c := range q.trucks {
		q.e.MustRegister(NewOrchestrated(c, q.net, q.w.Graph(), "tms"))
	}
	return q, d
}

func TestOrchestratedAssignsAndCompletes(t *testing.T) {
	q, d := orchestratedRig(t, 6, true)
	q.e.RunFor(5 * time.Minute)
	st := d.board.Stats()
	if st.Done < 4 {
		t.Errorf("done = %d, want most of 6 tasks", st.Done)
	}
	if _, ok := q.e.Env().Log.First(sim.EventTaskAssigned); !ok {
		t.Error("assignment events missing")
	}
}

func TestOrchestratedLocalReassignsWork(t *testing.T) {
	q, d := orchestratedRig(t, 10, true)
	q.e.RunFor(time.Minute)
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(6 * time.Minute)
	if d.GlobalIssued() {
		t.Fatal("one truck down must stay a local MRC")
	}
	if !q.trucks[1].Operational() {
		t.Fatalf("truck2 mode = %v", q.trucks[1].Mode())
	}
	st := d.board.Stats()
	if st.Done < 5 {
		t.Errorf("done = %d; the surviving truck should keep completing tasks", st.Done)
	}
	// Only truck2 may hold assignments now.
	if got := d.board.AssignedTo("truck1"); len(got) != 0 {
		t.Errorf("tasks still assigned to the failed truck: %v", got)
	}
}

func TestOrchestratedGlobalConcertedPark(t *testing.T) {
	q, d := orchestratedRig(t, 10, true)
	q.e.RunFor(30 * time.Second)
	q.digger.ApplyFault(blind("digger"))
	q.e.RunFor(6 * time.Minute)
	if !d.GlobalIssued() {
		t.Fatal("digger loss must escalate to a global MRC")
	}
	for _, c := range q.trucks {
		if !c.InMRC() {
			t.Fatalf("%s mode = %v", c.ID(), c.Mode())
		}
		if c.CurrentMRC().ID != "parking" {
			t.Errorf("%s MRC = %v, want concerted parking", c.ID(), c.CurrentMRC().ID)
		}
	}
	if st := d.board.Stats(); st.Queued+st.Assigned > 0 {
		t.Error("remaining tasks should be aborted on global MRC")
	}
	ev, ok := q.e.Env().Log.First(sim.EventMRCGlobal)
	if !ok || !strings.Contains(ev.Detail, "parking") {
		t.Errorf("global event = %+v", ev)
	}
}

func TestOrchestratedGlobalImmediateHalt(t *testing.T) {
	q, d := orchestratedRig(t, 10, false)
	q.e.RunFor(30 * time.Second)
	q.digger.ApplyFault(blind("digger"))
	q.e.RunFor(3 * time.Minute)
	if !d.GlobalIssued() {
		t.Fatal("digger loss must escalate")
	}
	for _, c := range q.trucks {
		if !c.InMRC() {
			t.Fatalf("%s mode = %v", c.ID(), c.Mode())
		}
		if c.CurrentMRC().ID == "parking" {
			t.Errorf("%s parked, want immediate halt", c.ID())
		}
	}
}

// Table I (orchestrated): an AV that loses communication with the
// directing entity goes to MRC unilaterally; the TMS presumes the
// silent member lost, requeues its work, and the survivors continue.
func TestOrchestratedCommLossUnilateralMRC(t *testing.T) {
	q, d := orchestratedRig(t, 10, true)
	q.e.RunFor(time.Minute)
	if !q.trucks[0].Operational() {
		t.Fatalf("setup: truck1 mode %v", q.trucks[0].Mode())
	}
	// truck1's radio dies (a comm fault takes its node down).
	q.trucks[0].ApplyFault(fault.Fault{ID: "radio", Target: "truck1",
		Kind: fault.KindComm, Severity: 1, Permanent: true})
	q.e.RunFor(2 * time.Minute)
	if q.trucks[0].Operational() {
		t.Errorf("truck1 mode = %v, want unilateral MRC after comm loss", q.trucks[0].Mode())
	}
	if got := d.board.AssignedTo("truck1"); len(got) != 0 {
		t.Errorf("TMS should requeue the silent member's tasks: %v", got)
	}
	if d.GlobalIssued() {
		t.Error("one silent truck must stay a local decision")
	}
	if !q.trucks[1].Operational() {
		t.Errorf("truck2 mode = %v; survivors must continue", q.trucks[1].Mode())
	}
	st := d.board.Stats()
	if st.Done < 4 {
		t.Errorf("done = %d; the surviving truck should keep completing tasks", st.Done)
	}
}

// Killing the DIRECTOR's radio silences the heartbeat: every member
// goes to MRC unilaterally — the designed fail-safe of the class.
func TestOrchestratedDirectorLossStopsEveryone(t *testing.T) {
	q, _ := orchestratedRig(t, 10, true)
	q.e.RunFor(time.Minute)
	q.net.SetNodeDown("tms", true)
	q.e.RunFor(2 * time.Minute)
	for _, c := range append([]*core.Constituent{q.digger}, q.trucks...) {
		if c.Operational() {
			t.Errorf("%s mode = %v; director loss must trigger unilateral MRCs", c.ID(), c.Mode())
		}
	}
}

// The halt response never re-enters: a designed global MRC needs user
// intervention, so a late check-in must not restart a halted fleet.
func TestChoreographedHaltNeverReenters(t *testing.T) {
	q := newQuarry(t, 2)
	board := NewCheckInBoard()
	var pol2 *Choreographed
	for i := range q.trucks {
		watch := []string{"truck1", "truck2"}
		watch = append(watch[:i], watch[i+1:]...)
		p := NewChoreographed(q.hauls[i], board, watch)
		p.Deadline = 90 * time.Second
		p.Response = ResponseHalt
		q.e.MustRegister(p)
		if i == 1 {
			pol2 = p
		}
	}
	q.trucks[0].ApplyFault(blind("truck1"))
	q.e.RunFor(3 * time.Minute)
	if !pol2.triggered {
		t.Fatal("setup: halt should trigger")
	}
	board.Record("truck1", q.e.Env().Clock.Now())
	q.e.RunFor(5 * time.Second)
	if !pol2.triggered {
		t.Error("halt must stay triggered despite the late check-in")
	}
	if !q.trucks[1].InMRC() {
		t.Error("halted truck must stay in MRC pending user intervention")
	}
}
