package collab

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/comm"
	"coopmrm/internal/coop"
	"coopmrm/internal/core"
	"coopmrm/internal/sim"
)

// perTickCoordinated is the coordinated rule before resolution on
// change, kept as an oracle: its own failed map, fed from every status
// beacon, and a scope resolution on every operational tick.
type perTickCoordinated struct {
	base   *coop.Base
	model  *core.DependencyModel
	failed map[string]bool
}

func (p *perTickCoordinated) ID() string { return p.base.C().ID() + ":coordinated" }

func (p *perTickCoordinated) failedSet() []string {
	out := make([]string, 0, len(p.failed))
	for id, down := range p.failed {
		if down {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (p *perTickCoordinated) Step(env *sim.Env) {
	c := p.base.C()
	for _, m := range p.base.Net.Receive(c.ID()) {
		if m.Topic != comm.TopicStatus {
			continue
		}
		p.base.HandleStatus(m)
		p.failed[m.From] = m.Mode() == "mrc" || m.Mode() == "mrm"
	}
	p.failed[c.ID()] = !c.Operational()

	if c.Operational() {
		dec := p.model.ResolveScope(p.failedSet()...)
		switch {
		case dec.Level == core.ScopeGlobal:
			env.EmitFields(sim.EventMRCGlobal, c.ID(), "coordinated global MRC: parking",
				map[string]string{"affected": strings.Join(dec.Affected, ",")})
			env.Emit(sim.EventMRMConcerted, c.ID(),
				"concerted global MRM: agreed drive to parking")
			c.TriggerMRMTo(env, "parking", "coordinated global MRC")
		case slices.Contains(dec.Affected, c.ID()):
			env.EmitFields(sim.EventMRCLocal, c.ID(), "coordinated local MRC: "+dec.Reasons[c.ID()],
				map[string]string{"affected": strings.Join(dec.Affected, ",")})
			c.TriggerMRMTo(env, "parking", dec.Reasons[c.ID()])
		}
	}
	p.base.BeaconIfDue(env)
}

// TestCoordinatedMatchesPerTickOracle runs the collab quarry once with
// Coordinated and once with the per-tick oracle in its place, and
// requires byte-identical event logs: resolving only when the stopped
// set or the member's own state changes loses no decision.
func TestCoordinatedMatchesPerTickOracle(t *testing.T) {
	cases := map[string]func(q *quarry){
		"truck_loss_local": func(q *quarry) {
			q.e.RunFor(30 * time.Second)
			q.trucks[0].ApplyFault(blind("truck1"))
			q.e.RunFor(3 * time.Minute)
		},
		"digger_loss_global": func(q *quarry) {
			q.e.RunFor(10 * time.Second)
			q.digger.ApplyFault(blind("digger"))
			q.e.RunFor(5 * time.Minute)
		},
		// A truck recovered while the digger is still down is stranded
		// again: it must resolve anew and drive back to parking. The
		// second recovery comes after every peer has stopped, so the
		// stopped set is the one the truck last resolved, and only
		// its own recovery can trigger the resolution.
		"stop_then_recovery": func(q *quarry) {
			q.e.RunFor(10 * time.Second)
			q.digger.ApplyFault(blind("digger"))
			q.e.RunFor(2 * time.Minute)
			q.trucks[0].Recover(q.e.Env())
			q.e.RunFor(time.Minute)
			q.trucks[0].Recover(q.e.Env())
			q.e.RunFor(time.Minute)
		},
	}
	for name, script := range cases {
		t.Run(name, func(t *testing.T) {
			got := coordinatedLog(t, script, func(b *coop.Base, m *core.DependencyModel) sim.Entity {
				return NewCoordinated(b, m)
			})
			want := coordinatedLog(t, script, func(b *coop.Base, m *core.DependencyModel) sim.Entity {
				return &perTickCoordinated{base: b, model: m, failed: make(map[string]bool)}
			})
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				i := 0
				for i < min(len(g), len(w))-1 && g[i] == w[i] {
					i++
				}
				t.Errorf("event log differs from the per-tick oracle at line %d:\ngot  %s\nwant %s", i, g[i], w[i])
			}
			if name == "stop_then_recovery" && strings.Count(got, `"subject":"truck1","detail":"coordinated global MRC`) != 3 {
				t.Error("truck1 should enter the global MRC once, then again after each recovery")
			}
		})
	}
}

// coordinatedLog registers one coordinated policy per member, built
// by mk, runs the script and returns the event log as JSON.
func coordinatedLog(t *testing.T, script func(q *quarry), mk func(*coop.Base, *core.DependencyModel) sim.Entity) string {
	t.Helper()
	q := newQuarry(t, 2)
	q.e.MustRegister(mk(newWorldBase(q, q.dHaul), q.model))
	for i := range q.trucks {
		q.e.MustRegister(mk(newWorldBase(q, q.hauls[i]), q.model))
	}
	script(q)
	var b strings.Builder
	if err := q.e.Env().Log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
