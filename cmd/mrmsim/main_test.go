package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/trace"
)

func TestParsePolicy(t *testing.T) {
	if _, err := parsePolicy("coordinated"); err != nil {
		t.Errorf("coordinated should parse: %v", err)
	}
	if _, err := parsePolicy("baseline"); err != nil {
		t.Errorf("baseline should parse: %v", err)
	}
	if _, err := parsePolicy("nonsense"); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestParseFaults(t *testing.T) {
	fs, err := parseFaults("truck1_1:sensor:60s, digger1:brake:2m")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("faults = %d", len(fs))
	}
	if fs[0].Target != "truck1_1" || fs[0].Kind != fault.KindSensor || fs[0].At != 60*time.Second {
		t.Errorf("fault[0] = %+v", fs[0])
	}
	if fs[1].Kind != fault.KindBrake || fs[1].At != 2*time.Minute {
		t.Errorf("fault[1] = %+v", fs[1])
	}
	if got, _ := parseFaults(""); got != nil {
		t.Error("empty spec should yield nil")
	}
	bad := []string{"x:y", "a:unknown:5s", "a:sensor:notaduration"}
	for _, spec := range bad {
		if _, err := parseFaults(spec); err == nil {
			t.Errorf("spec %q should error", spec)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	cases := [][]string{
		{"-scenario", "quarry", "-policy", "status_sharing", "-horizon", "30s",
			"-fault", "truck1_1:sensor:10s"},
		{"-scenario", "harbour", "-horizon", "30s"},
		{"-scenario", "highway", "-policy", "baseline", "-horizon", "30s"},
		{"-scenario", "platoon", "-horizon", "30s"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-scenario", "moonbase"}); err == nil {
		t.Error("unknown scenario should error")
	}
	if err := run([]string{"-policy", "zzz"}); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestRunRejectsFaultOutsideFleet(t *testing.T) {
	err := run([]string{"-scenario", "highway", "-policy", "baseline", "-fault", "car9:sensor:10s"})
	if err == nil || !strings.Contains(err.Error(), "not in the fleet") {
		t.Errorf("fault on car9 of a 5-car highway: err = %v, want \"not in the fleet\"", err)
	}
}

func TestTraceAndEventsOutput(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/trace.csv"
	eventsPath := dir + "/events.csv"
	err := run([]string{"-scenario", "quarry", "-policy", "baseline",
		"-horizon", "30s", "-trace", tracePath, "-events", eventsPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tracePath, eventsPath} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("output %s missing or empty: %v", p, err)
		}
	}
	// The trace must parse back.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := trace.ReadCSV(f)
	if err != nil || len(samples) == 0 {
		t.Errorf("trace round trip: %d samples, err %v", len(samples), err)
	}
}

func TestRunConfigFile(t *testing.T) {
	if err := run([]string{"-config", "../../examples/custom/site.json", "-horizon", "30s"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", "/nonexistent.json"}); err == nil {
		t.Error("missing config should error")
	}
}

func TestRunWarehouseConfig(t *testing.T) {
	if err := run([]string{"-config", "../../examples/custom/warehouse.json", "-horizon", "2m"}); err != nil {
		t.Fatal(err)
	}
}
