package platoon

import (
	"testing"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/geom"
	"coopmrm/internal/odd"
	"coopmrm/internal/sim"
	"coopmrm/internal/vehicle"
	"coopmrm/internal/world"
)

func platoonRig(t *testing.T, n int) (*sim.Engine, *Platoon, []*core.Constituent) {
	t.Helper()
	w := world.New()
	w.MustAddZone(world.Zone{ID: "lane", Kind: world.ZoneLane,
		Area: geom.NewRect(geom.V(-100, -4), geom.V(100000, 4))})
	w.MustAddZone(world.Zone{ID: "shoulder", Kind: world.ZoneShoulder,
		Area: geom.NewRect(geom.V(-100, 4), geom.V(100000, 8))})
	roadODD := odd.DefaultRoadSpec()
	e := sim.NewEngine(sim.Config{Step: 100 * time.Millisecond})
	var members []*core.Constituent
	for i := 0; i < n; i++ {
		c := core.MustConstituent(core.Config{
			ID:        "m" + string(rune('1'+i)),
			Spec:      vehicle.DefaultSpec(vehicle.KindTruck),
			Start:     geom.Pose{Pos: geom.V(float64(-20*i), 0)},
			World:     w,
			ODD:       &roadODD,
			Hierarchy: core.DefaultRoadHierarchy(),
		})
		e.MustRegister(c)
		members = append(members, c)
	}
	path := geom.MustPath(geom.V(-100, 0), geom.V(100000, 0))
	p := MustNew("platoon", path, members...)
	e.MustRegister(p)
	return e, p, members
}

func TestPlatoonFormsAndCruises(t *testing.T) {
	e, p, members := platoonRig(t, 4)
	e.RunFor(2 * time.Minute)
	if p.Leader() != members[0] {
		t.Error("leader should be the first member")
	}
	if s := p.MeanSpeed(); s < p.Speed*0.9 {
		t.Errorf("mean speed = %v, want ~%v", s, p.Speed)
	}
	// Gaps roughly at the setpoint.
	for i := 1; i < 4; i++ {
		d0, _ := members[i-1].Body().PathProgress()
		d1, _ := members[i].Body().PathProgress()
		gap := d0 - d1
		if gap < p.Gap*0.5 || gap > p.Gap*2 {
			t.Errorf("gap %d = %v, want ~%v", i, gap, p.Gap)
		}
	}
	// Followers are marked as such.
	if members[0].PlatoonFollower() || !members[1].PlatoonFollower() {
		t.Error("roles not applied")
	}
}

// Sec. III-B case (iv): leader loses its forward sensors; a new
// leader is elected, the old one follows, and system capacity is
// unchanged.
func TestLeaderHandoverKeepsSpeed(t *testing.T) {
	e, p, members := platoonRig(t, 4)
	e.RunFor(time.Minute)
	before := p.MeanSpeed()

	members[0].ApplyFault(fault.Fault{ID: "radar", Target: "m1", Kind: fault.KindSensor,
		Detail: "long_range_radar", Severity: 1, Permanent: true})
	members[0].ApplyFault(fault.Fault{ID: "cam", Target: "m1", Kind: fault.KindSensor,
		Detail: "camera", Severity: 1, Permanent: true})
	e.RunFor(time.Minute)

	if p.Elections() != 1 {
		t.Fatalf("elections = %d, want 1", p.Elections())
	}
	if p.Leader() == members[0] {
		t.Error("faulty member must not lead")
	}
	if !members[0].Operational() {
		t.Errorf("ex-leader should continue as follower, mode %v", members[0].Mode())
	}
	after := p.MeanSpeed()
	if after < before*0.9 {
		t.Errorf("system speed dropped: %v -> %v (case iv promises no system degradation)", before, after)
	}
	if p.disbanded {
		t.Error("platoon must not disband")
	}
	// The ex-leader keeps its permanent fault (constituent-level
	// permanent performance degradation).
	if !members[0].HasPermanentFault() {
		t.Error("constituent-level permanent fault should persist")
	}
}

func TestPlatoonDisbandsWhenNobodyCanLead(t *testing.T) {
	e, p, members := platoonRig(t, 3)
	e.RunFor(30 * time.Second)
	for i, m := range members {
		m.ApplyFault(fault.Fault{ID: "radar" + m.ID(), Target: m.ID(), Kind: fault.KindSensor,
			Detail: "long_range_radar", Severity: 1, Permanent: true})
		m.ApplyFault(fault.Fault{ID: "cam" + m.ID(), Target: m.ID(), Kind: fault.KindSensor,
			Detail: "camera", Severity: 1, Permanent: true})
		_ = i
	}
	e.RunFor(3 * time.Minute)
	if !p.disbanded {
		t.Fatal("platoon should disband when nobody can lead")
	}
	for _, m := range members {
		if m.Operational() {
			t.Errorf("%s still operational after disband", m.ID())
		}
	}
	if _, ok := e.Env().Log.First(sim.EventMRCGlobal); !ok {
		t.Error("disband should be a platoon-wide (global) MRC event")
	}
}

func TestFollowerBlindDoesNotStop(t *testing.T) {
	// A fully blind follower keeps going: the leader's perception
	// covers it (this is exactly what follower mode models).
	e, p, members := platoonRig(t, 3)
	e.RunFor(30 * time.Second)
	members[2].ApplyFault(fault.Fault{ID: "blind", Target: "m3", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(time.Minute)
	if !members[2].Operational() {
		t.Errorf("blind follower mode = %v, want operational", members[2].Mode())
	}
	if p.Elections() != 0 {
		t.Error("follower fault must not trigger an election")
	}
}

func TestLoneVehicleCannotFollow(t *testing.T) {
	// The same blind vehicle outside a platoon must go to MRC —
	// case (iv)'s "may force it to an MRC when attempting to operate
	// without a lead vehicle".
	e, _, members := platoonRig(t, 3)
	e.RunFor(10 * time.Second)
	members[2].SetPlatoonFollower(false) // it leaves the platoon
	members[2].ApplyFault(fault.Fault{ID: "blind", Target: "m3", Kind: fault.KindSensor,
		Severity: 1, Permanent: true})
	e.RunFor(time.Minute)
	if members[2].Operational() {
		t.Errorf("blind lone vehicle mode = %v, want MRM/MRC", members[2].Mode())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("p", nil); err == nil {
		t.Error("empty platoon should error")
	}
}

func TestLeaderMRCTriggersElection(t *testing.T) {
	e, p, members := platoonRig(t, 3)
	e.RunFor(30 * time.Second)
	// Leader loses localization entirely: it goes to MRC; another
	// member takes over and the platoon continues.
	members[0].ApplyFault(fault.Fault{ID: "gps", Target: "m1", Kind: fault.KindLocalization,
		Severity: 1, Permanent: true})
	e.RunFor(2 * time.Minute)
	if members[0].Operational() {
		t.Fatalf("m1 mode = %v, want MRC", members[0].Mode())
	}
	if p.Elections() < 1 {
		t.Error("election should have happened")
	}
	if p.disbanded {
		t.Error("platoon should continue with remaining members")
	}
	if s := p.MeanSpeed(); s < p.Speed*0.8 {
		t.Errorf("surviving platoon speed = %v", s)
	}
}
