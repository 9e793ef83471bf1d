package comm

// Message topics shared by the cooperation/collaboration policies.
// Keeping them here gives every class one protocol vocabulary.
const (
	// TopicStatus carries periodic CAM-style state beacons
	// (position, ADS mode, nearest route node).
	TopicStatus = "cam.status"
	// TopicMRMIntent announces a planned MRM: target stop position
	// and the selected MRC (DENM-style).
	TopicMRMIntent = "mrm.intent"
	// TopicGapRequest asks neighbours to open a gap for an MRM
	// (MCM-style, agreement-seeking).
	TopicGapRequest = "mrm.gap_request"
	// TopicGapResponse carries the ack/nack for a gap request.
	TopicGapResponse = "mrm.gap_response"
	// TopicEvacuate initiates or relays a negotiated evacuation.
	TopicEvacuate = "mrm.evacuate"
	// TopicCommandMRC is a prescriptive/orchestrated order to reach a
	// (specific) MRC.
	TopicCommandMRC = "cmd.mrc"
	// TopicCommandRoute is an orchestrated rerouting order (avoid a
	// node).
	TopicCommandRoute = "cmd.route"
	// TopicTaskAssign carries a TMS task assignment.
	TopicTaskAssign = "tms.assign"
	// TopicTaskDone reports task completion to the TMS.
	TopicTaskDone = "tms.done"
)

// Text field keys used with the topics above. Positions, modes and
// nodes are typed Body fields.
const (
	KeyMRC    = "mrc"
	KeyReason = "reason"
	KeyAck    = "ack"
	KeyTask   = "task"
	KeyOrder  = "order"
	KeyAvoid  = "avoid"
)
