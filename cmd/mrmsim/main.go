// Command mrmsim runs one named scenario with a chosen interaction
// class and fault schedule, printing the metrics report, the event
// summary, and (optionally) CSV artefacts.
//
// Usage:
//
//	mrmsim -scenario quarry -policy coordinated -horizon 5m \
//	       -fault truck1_1:sensor:60s [-events events.csv] [-seed 7]
//
// A flag the chosen scenario does not read is an error: -policy with
// the harbour or the platoon, and -policy, -fault, -seed or -trace with
// -config.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"coopmrm/internal/core"
	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
	"coopmrm/internal/sim"
	"coopmrm/internal/trace"
	"coopmrm/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mrmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mrmsim", flag.ContinueOnError)
	scen := fs.String("scenario", "quarry", "scenario: quarry | harbour | highway | platoon (ignored with -config)")
	configPath := fs.String("config", "", "build the scenario from a JSON file instead (see examples/custom/site.json)")
	policy := fs.String("policy", "", "interaction class: baseline | status_sharing | intent_sharing | agreement_seeking | prescriptive | coordinated | choreographed | orchestrated (default: the scenario's own, coordinated for the quarry and baseline for the highway; quarry and highway only)")
	horizon := fs.Duration("horizon", 5*time.Minute, "simulated duration")
	seed := fs.Int64("seed", 1, "simulation seed")
	faults := fs.String("fault", "", "comma-separated faults target:kind:onset, e.g. truck1_1:sensor:60s")
	eventsOut := fs.String("events", "", "write the event log as CSV to this file")
	traceOut := fs.String("trace", "", "write 1 Hz position traces as CSV to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rejectUnread(fs, *scen, *configPath); err != nil {
		return err
	}

	p, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	schedule, err := parseFaults(*faults)
	if err != nil {
		return err
	}

	if *configPath != "" {
		return runConfig(*configPath, *horizon, *eventsOut)
	}

	var res scenario.Result
	var recorder *trace.Recorder
	attachTrace := func(e *sim.Engine, cs []*core.Constituent) {
		if *traceOut == "" {
			return
		}
		sources := make([]trace.Source, 0, len(cs))
		for _, c := range cs {
			c := c
			sources = append(sources, trace.Source{
				ID:    c.ID(),
				Pos:   c.Body().Position,
				Speed: c.Body().Speed,
				Mode:  func() string { return c.Mode().String() },
			})
		}
		recorder = trace.NewRecorder(time.Second, sources...)
		e.AddPostHook(recorder.Hook())
	}
	switch *scen {
	case "quarry":
		rig, err := scenario.NewQuarry(scenario.QuarryConfig{
			Pairs: 2, TrucksPerPair: 2, Policy: p, Seed: *seed,
			Concerted: true, Faults: schedule,
		})
		if err != nil {
			return err
		}
		attachTrace(rig.Engine, rig.All())
		res = rig.Run(*horizon)
		fmt.Printf("delivered: %.1f units\n\n", rig.Delivered())
	case "harbour":
		weather := world.MustWeatherSchedule(
			world.WeatherChange{At: 75 * time.Second, Condition: world.Rain, TemperatureC: 2})
		rig, err := scenario.NewHarbour(scenario.HarbourConfig{
			Forklifts: 3, Seed: *seed, TwoLevel: true,
			Weather: weather, Faults: schedule,
		})
		if err != nil {
			return err
		}
		attachTrace(rig.Engine, rig.All())
		res = rig.Run(*horizon)
		fmt.Printf("containers stacked: %.1f, final MRC level: %d\n\n",
			rig.Delivered(), rig.Supervisor.Level())
	case "highway":
		rig, err := scenario.NewHighway(scenario.HighwayConfig{
			NCars: 5, Policy: p, Seed: *seed, Faults: schedule,
		})
		if err != nil {
			return err
		}
		attachTrace(rig.Engine, rig.Cars)
		res = rig.Run(*horizon)
		fmt.Printf("traffic progress: %.1f km, ego MRC: %s\n\n",
			rig.Progress()/1000, rig.Ego.CurrentMRC().ID)
	case "platoon":
		rig, err := scenario.NewPlatoon(scenario.PlatoonConfig{
			Members: 5, Seed: *seed, Faults: schedule,
		})
		if err != nil {
			return err
		}
		attachTrace(rig.Engine, rig.Members)
		res = rig.Run(*horizon)
		fmt.Printf("platoon speed: %.1f m/s, elections: %d, order: %s\n\n",
			rig.Platoon.MeanSpeed(), rig.Platoon.Elections(),
			strings.Join(rig.Platoon.Order(), " > "))
	default:
		return fmt.Errorf("unknown scenario %q", *scen)
	}

	fmt.Println(res.Report)
	fmt.Println("events:")
	fmt.Println(res.Log.Summary())

	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteEventCSV(f, res.Log); err != nil {
			return err
		}
		fmt.Println("event CSV written to", *eventsOut)
	}
	if recorder != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := recorder.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("position trace (%d samples) written to %s\n", recorder.Len(), *traceOut)
	}
	return nil
}

// runConfig executes a JSON-defined scenario.
func runConfig(path string, horizon time.Duration, eventsOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rig, err := scenario.Load(f)
	if err != nil {
		return err
	}
	res := rig.Run(horizon)
	fmt.Printf("scenario %q: delivered %.1f units\n\n", rig.Name, rig.Delivered())
	fmt.Println(res.Report)
	fmt.Println("events:")
	fmt.Println(res.Log.Summary())
	if eventsOut != "" {
		out, err := os.Create(eventsOut)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := trace.WriteEventCSV(out, res.Log); err != nil {
			return err
		}
		fmt.Println("event CSV written to", eventsOut)
	}
	return nil
}

// rejectUnread fails when a flag was set that the chosen scenario does
// not read, instead of running without it: only the quarry and the
// highway take a policy, and a site file fixes its own policy, faults
// and seed and records no position trace.
func rejectUnread(fs *flag.FlagSet, scen, configPath string) error {
	var unread []string
	what := "the " + scen + " scenario"
	switch {
	case configPath != "":
		unread = []string{"policy", "fault", "seed", "trace"}
		what = "-config"
	case scen == "harbour" || scen == "platoon":
		unread = []string{"policy"}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(unread, f.Name) {
			err = fmt.Errorf("-%s is not read by %s", f.Name, what)
		}
	})
	return err
}

// parsePolicy resolves a policy name; "" is the zero kind, which every
// rig reads as its own default.
func parsePolicy(name string) (scenario.PolicyKind, error) {
	if name == "" {
		return 0, nil
	}
	for _, p := range scenario.AllPolicies() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// parseFaults parses "target:kind:onset" triples. Kinds: sensor,
// brake, steering, propulsion, comm, tool, localization.
func parseFaults(spec string) ([]fault.Fault, error) {
	if spec == "" {
		return nil, nil
	}
	var out []fault.Fault
	for i, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("fault %q: want target:kind:onset", part)
		}
		kind, err := fault.ParseKind(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fault %q: %v", part, err)
		}
		at, err := time.ParseDuration(fields[2])
		if err != nil {
			return nil, fmt.Errorf("fault %q: %v", part, err)
		}
		out = append(out, fault.Fault{
			ID: fmt.Sprintf("cli-%d", i), Target: fields[0], Kind: kind,
			Severity: 1, Permanent: true, At: at,
		})
	}
	return out, nil
}
