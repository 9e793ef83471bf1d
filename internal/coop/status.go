package coop

import (
	"coopmrm/internal/sim"
)

// StatusSharing is the J3216 class A policy: vehicles broadcast
// periodic status (position, ADS mode, nearest node) and consume
// peers' beacons. When a peer reports MRM/MRC at a node, the vehicle
// privately avoids that node and replans — the paper's mine example
// where a truck stopped in a tunnel causes others to reroute.
//
// No global MRC exists in this class: every vehicle decides for
// itself.
type StatusSharing struct {
	base *Base
}

var _ sim.Entity = (*StatusSharing)(nil)

// NewStatusSharing wires the policy; register it after the haul agent
// it steers.
func NewStatusSharing(base *Base) *StatusSharing {
	return &StatusSharing{base: base}
}

// ID implements sim.Entity.
func (s *StatusSharing) ID() string { return s.base.C().ID() + ":status_sharing" }

// Step implements sim.Entity.
func (s *StatusSharing) Step(env *sim.Env) {
	for _, m := range s.base.Net.Receive(s.base.C().ID()) {
		s.base.HandleStatus(m)
	}
	s.base.BeaconIfDue(env)
}
