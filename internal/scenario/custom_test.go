package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

const testSiteJSON = `{
  "name": "test-site",
  "seed": 3,
  "zones": [
    {"id": "loading",  "kind": "loading",   "min": [-15, -15], "max": [15, 15]},
    {"id": "deposit",  "kind": "unloading", "min": [185, -15], "max": [215, 15]},
    {"id": "cut",      "kind": "tunnel",    "min": [15, -6],   "max": [185, 6]},
    {"id": "park",     "kind": "parking",   "min": [-60, -60], "max": [-30, -30]}
  ],
  "nodes": [
    {"id": "load", "x": 0, "y": 0},
    {"id": "mid",  "x": 100, "y": 0},
    {"id": "dep",  "x": 200, "y": 0},
    {"id": "alt",  "x": 100, "y": 80}
  ],
  "edges": [["load","mid"],["mid","dep"],["load","alt"],["alt","dep"]],
  "fleet": [
    {"id": "digger1", "kind": "digger", "x": 5, "y": 8, "role": "digger", "requires": ["truck"]},
    {"id": "truck1", "kind": "truck", "x": -12, "y": 0, "role": "truck", "requires": ["digger"],
     "loop": ["dep","load"], "deposits": ["dep"], "serviceNodes": ["load"], "speedMs": 8},
    {"id": "truck2", "kind": "truck", "x": -24, "y": 0, "role": "truck", "requires": ["digger"],
     "loop": ["dep","load"], "deposits": ["dep"], "serviceNodes": ["load"], "speedMs": 8}
  ],
  "policy": "coordinated",
  "faults": [
    {"target": "truck1", "kind": "sensor", "atSeconds": 60, "permanent": true}
  ]
}`

func TestLoadAndRunCustomSite(t *testing.T) {
	rig, err := Load(strings.NewReader(testSiteJSON))
	if err != nil {
		t.Fatal(err)
	}
	if rig.Name != "test-site" || len(rig.All()) != 3 {
		t.Fatalf("rig = %q with %d constituents", rig.Name, len(rig.All()))
	}
	res := rig.Run(4 * time.Minute)
	// The faulted truck reaches MRC; the coordinated survivors keep
	// delivering around the tunnel.
	var victim, survivor bool
	for _, c := range rig.All() {
		switch c.ID() {
		case "truck1":
			victim = !c.Operational()
		case "truck2":
			survivor = c.Operational()
		}
	}
	if !victim {
		t.Error("truck1 should be in MRM/MRC")
	}
	if !survivor {
		t.Error("truck2 should continue (local MRC)")
	}
	if rig.Delivered() < 2 {
		t.Errorf("delivered = %v", rig.Delivered())
	}
	if res.Report.Duration != 4*time.Minute {
		t.Errorf("duration = %v", res.Report.Duration)
	}
	// Scope from the declared roles.
	dec := rig.Model.ResolveScope("digger1")
	if dec.Level.String() != "global" {
		t.Errorf("lone digger loss should be global, got %v", dec.Level)
	}
}

func TestLoadDeterministic(t *testing.T) {
	run := func() float64 {
		rig, err := Load(strings.NewReader(testSiteJSON))
		if err != nil {
			t.Fatal(err)
		}
		rig.Run(2 * time.Minute)
		return rig.Delivered()
	}
	if run() != run() {
		t.Error("same config should reproduce the same result")
	}
}

// badSiteConfigs are site files Load must reject; FuzzLoad seeds its
// corpus with them too.
var badSiteConfigs = map[string]string{
	"not json":        `{`,
	"unknown field":   `{"name":"x","fleetz":[]}`,
	"empty fleet":     `{"name":"x","fleet":[]}`,
	"bad zone kind":   `{"fleet":[{"id":"a","kind":"truck"}],"zones":[{"id":"z","kind":"volcano","min":[0,0],"max":[1,1]}]}`,
	"bad vehicle":     `{"fleet":[{"id":"a","kind":"hovercraft"}]}`,
	"bad edge":        `{"fleet":[{"id":"a","kind":"truck"}],"edges":[["x","y"]]}`,
	"bad policy":      `{"fleet":[{"id":"a","kind":"truck"}],"policy":"telepathy"}`,
	"bad fault kind":  `{"fleet":[{"id":"a","kind":"truck"}],"faults":[{"target":"a","kind":"gremlins","atSeconds":1}]}`,
	"bad weather":     `{"fleet":[{"id":"a","kind":"truck"}],"weather":[{"atSeconds":1,"condition":"meteor"}]}`,
	"duplicate fleet": `{"fleet":[{"id":"a","kind":"truck"},{"id":"a","kind":"truck"}]}`,
	"unknown fault target": `{"fleet":[{"id":"a","kind":"truck"}],
		"faults":[{"target":"b","kind":"sensor","atSeconds":1,"permanent":true}]}`,
	"unknown loop node": `{"nodes":[{"id":"p","x":0,"y":0},{"id":"q","x":50,"y":0}],"edges":[["p","q"]],
		"fleet":[{"id":"a","kind":"truck","loop":["q","r"]}]}`,
	"unknown deposit node": `{"nodes":[{"id":"p","x":0,"y":0},{"id":"q","x":50,"y":0}],"edges":[["p","q"]],
		"fleet":[{"id":"a","kind":"truck","loop":["q","p"],"deposits":["r"]}]}`,
	"unknown service node": `{"nodes":[{"id":"p","x":0,"y":0},{"id":"q","x":50,"y":0}],"edges":[["p","q"]],
		"fleet":[{"id":"a","kind":"truck","loop":["q","p"],"serviceNodes":["r"]}]}`,
	"duplicate node": `{"nodes":[{"id":"p","x":0,"y":0},{"id":"p","x":50,"y":0}],
		"fleet":[{"id":"a","kind":"truck"}]}`,
	"empty vehicle id": `{"fleet":[{"id":"","kind":"truck"}]}`,
	"agent id clash":   `{"fleet":[{"id":"a:agent","kind":"truck"},{"id":"a","kind":"truck"}]}`,
}

func TestLoadRejectsBadConfigs(t *testing.T) {
	for name, js := range badSiteConfigs {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the site-file loader. Load must
// never panic, and a site it accepts must run a short horizon without
// panicking and with consistent network accounting.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(testSiteJSON))
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "custom", "*.json"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example site files found (err %v)", err)
	}
	for _, p := range examples {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	names := make([]string, 0, len(badSiteConfigs))
	for name := range badSiteConfigs {
		names = append(names, name)
	}
	sort.Strings(names) // stable seed#N numbering
	for _, name := range names {
		f.Add([]byte(badSiteConfigs[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rig, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		rig.Run(5 * time.Second)
		if sent, dropped := rig.Net.Stats(); dropped > sent {
			t.Fatalf("network dropped %d of %d sent", dropped, sent)
		}
	})
}

func TestLoadWeatherSchedule(t *testing.T) {
	js := `{
	  "fleet": [{"id": "a", "kind": "truck", "x": 0, "y": 0}],
	  "weather": [{"atSeconds": 5, "condition": "heavy_rain", "temperatureC": 3}]
	}`
	rig, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	rig.Run(2 * time.Second)
	if rig.World.Weather.Condition.String() != "clear" {
		t.Error("weather applied too early")
	}
	rig.Run(10 * time.Second)
	if rig.World.Weather.Condition.String() != "heavy_rain" {
		t.Errorf("weather = %v", rig.World.Weather.Condition)
	}
}
