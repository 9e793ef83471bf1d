package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"coopmrm"
)

// JobRequest is the wire form of POST /v1/jobs. Field order, unknown
// encodings and spelled-out defaults never reach the cache key — a
// request is reduced to its CanonicalJob first (see Canonicalize).
type JobRequest struct {
	// Experiment is the experiment or ablation ID to run (E1..E19,
	// A1..; see GET /v1/experiments).
	Experiment string `json:"experiment"`
	// Options mirrors the CLI knobs that shape output bytes.
	Options JobOptions `json:"options"`
	// Seeds requests a seed sweep: either a CLI-style spec string
	// ("1..32", "3,5,9", "x8" — derived from Options.Seed) or an
	// explicit JSON array. Absent means a single run at Options.Seed.
	// A sweep is a streaming campaign: it checkpoints, reports
	// progress, and survives a server drain.
	Seeds SeedsSpec `json:"seeds"`
	// TimeoutSeconds bounds the job's run time; 0 (or anything above
	// it) means the server default. Operational only — never part of
	// the cache key.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// JobOptions is the wire form of coopmrm.Options.
type JobOptions struct {
	Seed  int64 `json:"seed,omitempty"`
	Quick bool  `json:"quick,omitempty"`
}

// SeedsSpec accepts either form of the seeds field: a spec string or
// an explicit array.
type SeedsSpec struct {
	spec   string
	list   []int64
	isList bool
}

// UnmarshalJSON accepts "1..8"-style strings, arrays of integers, and
// null (no sweep).
func (s *SeedsSpec) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*s = SeedsSpec{}
		return nil
	}
	if len(data) > 0 && data[0] == '"' {
		s.isList = false
		s.list = nil
		return json.Unmarshal(data, &s.spec)
	}
	s.spec = ""
	s.isList = true
	return json.Unmarshal(data, &s.list)
}

// CanonicalJob is a job's content identity: the experiment and every
// option that shapes output bytes, defaults applied and seed specs
// expanded, in one fixed-field-order struct. Its JSON encoding is
// canonical by construction — struct fields marshal in declaration
// order and no maps are involved, so no map-iteration-order
// instability can reach the hash, and two semantically identical
// submissions (reordered JSON fields, "1..4" vs [1,2,3,4], defaults
// spelled out vs omitted) collide on the same key. Seed *order* stays
// significant: the streaming fold is order-sensitive, so [2,1] and
// [1,2] are genuinely different campaigns.
//
// Knobs proven not to change output bytes (-parallel, worker counts)
// and wall-clock knobs (timeouts) are deliberately excluded:
// determinism is what makes the cache correct, exclusion is what
// makes it useful.
type CanonicalJob struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	Seeds      []int64 `json:"seeds,omitempty"`
}

// Canonicalize validates a request and reduces it to canonical form.
func Canonicalize(req JobRequest) (CanonicalJob, error) {
	if _, ok := experimentByID(req.Experiment); !ok {
		return CanonicalJob{}, fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	cj := CanonicalJob{
		Experiment: req.Experiment,
		Seed:       req.Options.Seed,
		Quick:      req.Options.Quick,
	}
	if cj.Seed == 0 {
		// The library default: "seed 0" and "seed omitted" are the
		// same run and must be the same cache entry.
		cj.Seed = 1
	}
	switch {
	case req.Seeds.isList:
		if len(req.Seeds.list) == 0 {
			return CanonicalJob{}, fmt.Errorf("seeds: empty list")
		}
		seen := make(map[int64]bool, len(req.Seeds.list))
		for _, s := range req.Seeds.list {
			if s == 0 {
				// Mirrors ParseSeedSpec: seed 0 runs as the default
				// seed 1, so the campaign would fold one sample twice.
				return CanonicalJob{}, fmt.Errorf("seeds: seed 0 runs as the default seed 1")
			}
			if seen[s] {
				// Mirrors ParseSeedSpec: a repeated seed would fold the
				// same arm twice and silently skew mean±sd.
				return CanonicalJob{}, fmt.Errorf("seeds: duplicate seed %d", s)
			}
			seen[s] = true
		}
		cj.Seeds = append([]int64(nil), req.Seeds.list...)
	case req.Seeds.spec != "":
		seeds, err := coopmrm.ParseSeedSpec(req.Seeds.spec, cj.Seed)
		if err != nil {
			return CanonicalJob{}, err
		}
		cj.Seeds = seeds
	}
	return cj, nil
}

// Key returns the job's content address: the SHA-256 of its canonical
// JSON encoding, in hex. It doubles as the job ID — identical
// submissions share one ID, which is what makes single-flight
// coalescing and the result cache the same mechanism.
func (c CanonicalJob) Key() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Fixed struct of scalars and a slice; cannot fail.
		panic("server: canonical job not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// options converts the canonical form back to library options.
func (c CanonicalJob) options() coopmrm.Options {
	return coopmrm.Options{Seed: c.Seed, Quick: c.Quick}
}

// jobTotal is the number of underlying experiment runs a job performs.
func jobTotal(c CanonicalJob) int {
	if len(c.Seeds) > 0 {
		return len(c.Seeds)
	}
	return 1
}

// experimentByID resolves experiments and ablations, like the CLI -run
// selector.
func experimentByID(id string) (coopmrm.Experiment, bool) {
	if e, ok := coopmrm.ExperimentByID(id); ok {
		return e, true
	}
	return coopmrm.AblationByID(id)
}
