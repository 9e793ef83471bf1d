// Platoon: the paper's Sec. III-B case (iv). A five-truck platoon
// transports goods; the leader's forward-looking sensors fail. The
// platoon adapts by electing a new leader; the faulty truck continues
// as a follower (the leader's field of view covers it). From the
// system-of-systems perspective there is no degradation at all; from
// the constituent's perspective the fault is a permanent performance
// degradation.
//
// Run with: go run ./examples/platoon
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"coopmrm/internal/fault"
	"coopmrm/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "platoon:", err)
		os.Exit(1)
	}
}

func run() error {
	rig, err := scenario.NewPlatoon(scenario.PlatoonConfig{
		Members: 5,
		Faults: []fault.Fault{
			{ID: "radar", Target: "member1", Kind: fault.KindSensor,
				Detail: "long_range_radar", Severity: 1, Permanent: true, At: 60 * time.Second},
			{ID: "camera", Target: "member1", Kind: fault.KindSensor,
				Detail: "camera", Severity: 1, Permanent: true, At: 60 * time.Second},
		},
	})
	if err != nil {
		return err
	}

	rig.Run(55 * time.Second)
	fmt.Printf("t=55s   leader=%-8s speed=%4.1f m/s  order: %s\n",
		rig.Platoon.Leader().ID(), rig.Platoon.MeanSpeed(),
		strings.Join(rig.Platoon.Order(), " > "))

	rig.Run(10 * time.Second) // the leader's front sensors fail at 60s
	fmt.Printf("t=65s   leader=%-8s speed=%4.1f m/s  (handover after the fault)\n",
		rig.Platoon.Leader().ID(), rig.Platoon.MeanSpeed())

	rig.Run(2 * time.Minute)
	fmt.Printf("t=185s  leader=%-8s speed=%4.1f m/s  elections=%d\n",
		rig.Platoon.Leader().ID(), rig.Platoon.MeanSpeed(), rig.Platoon.Elections())

	m1 := rig.All()[0]
	fmt.Printf("\nmember1: mode=%s, permanent fault=%v, follower=%v\n",
		m1.Mode(), m1.HasPermanentFault(), m1.PlatoonFollower())
	fmt.Println("-> system view: no degradation (same speed and capacity)")
	fmt.Println("-> constituent view: permanent performance degradation; it could not operate alone")
	return nil
}
