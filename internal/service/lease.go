package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gpurel/internal/campaign"
)

// Lease-protocol wire types (v1). The types live here — not in
// internal/fleet — so the client package and the fleet package share one
// schema without an import cycle through the service.
//
// Protocol summary (served by fleet.Coordinator, mounted on the /v1 mux):
//
//	POST   /v1/leases                 LeaseRequest -> 200 Lease | 204 no work (after a hold) | 503 closed
//	POST   /v1/leases/{id}/report     LeaseReport  -> 200 LeaseAck | 410 gone
//	POST   /v1/leases/{id}/heartbeat  -> 204 | 410 gone
//	DELETE /v1/leases/{id}            return unexecuted remainder -> 204
//
// A lease is a claimed run-range with a heartbeat deadline. Reports cover
// prefix sub-ranges of the lease and double as heartbeats; the coordinator
// shrinks the remainder as reports land. A lease whose deadline passes is
// expired: its remainder is requeued exactly once (the lease is deleted, so
// a second expiry cannot happen), and any late report from the original
// worker merges idempotently by run-range — deterministic seeding makes the
// re-run bit-identical, so double execution can never double-count.
//
// The v1 schema nests requests under envelope keys — {"lease":{...}} for
// requests, {"report":{...}} for reports — matching the job spec's grouped
// style. The pre-v1 bare spellings are still accepted on decode but are
// deprecated and never emitted; responses carry a deprecation note when the
// request used them.

// LeaseRequest asks the coordinator for a run-range to execute. v1 wire
// form nests it under "lease":
//
//	{"lease":{"worker":"w1","max_runs":256,"runs_per_sec":42.5}}
type LeaseRequest struct {
	// Worker identifies the requester in the registry, metrics and logs.
	Worker string `json:"worker"`
	// MaxRuns caps the granted range (0 = coordinator default).
	MaxRuns int `json:"max_runs,omitempty"`
	// RunsPerSec is the worker's current measured throughput (its
	// calibration micro-burst, refined by live chunk timings). The
	// coordinator folds it into the registry's capability record and sizes
	// the grant from it; 0 = unknown.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`

	// legacyFlat records that the request was decoded from the deprecated
	// bare (un-enveloped) form; the coordinator surfaces a deprecation note
	// in the granted lease.
	legacyFlat bool
}

// leaseRequestBody is the inner object of the request envelope.
type leaseRequestBody struct {
	Worker     string  `json:"worker"`
	MaxRuns    int     `json:"max_runs,omitempty"`
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
}

// leaseRequestWire is the superset decode target: the v1 envelope plus the
// deprecated bare spelling. Pointers distinguish "absent" from zero so
// mixing the two forms can be rejected instead of silently resolved.
type leaseRequestWire struct {
	Lease *leaseRequestBody `json:"lease"`

	Worker     *string  `json:"worker"`
	MaxRuns    *int     `json:"max_runs"`
	RunsPerSec *float64 `json:"runs_per_sec"`
}

// UnmarshalJSON decodes both the v1 envelope and the deprecated bare form.
// Unknown fields are rejected; mixing the two spellings is an error.
func (lr *LeaseRequest) UnmarshalJSON(data []byte) error {
	var w leaseRequestWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	flat := w.Worker != nil || w.MaxRuns != nil || w.RunsPerSec != nil
	if w.Lease != nil {
		if flat {
			return fmt.Errorf(`lease request mixes the nested "lease" envelope with deprecated bare fields (worker/max_runs)`)
		}
		*lr = LeaseRequest{Worker: w.Lease.Worker, MaxRuns: w.Lease.MaxRuns, RunsPerSec: w.Lease.RunsPerSec}
		return nil
	}
	*lr = LeaseRequest{legacyFlat: true}
	if w.Worker != nil {
		lr.Worker = *w.Worker
	}
	if w.MaxRuns != nil {
		lr.MaxRuns = *w.MaxRuns
	}
	if w.RunsPerSec != nil {
		lr.RunsPerSec = *w.RunsPerSec
	}
	return nil
}

// MarshalJSON always emits the v1 envelope.
func (lr LeaseRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Lease leaseRequestBody `json:"lease"`
	}{leaseRequestBody{Worker: lr.Worker, MaxRuns: lr.MaxRuns, RunsPerSec: lr.RunsPerSec}})
}

// LegacyFlat reports whether the request was decoded from the deprecated
// bare wire form (the pre-v1 schema).
func (lr LeaseRequest) LegacyFlat() bool { return lr.legacyFlat }

// Validate rejects malformed lease requests.
func (lr LeaseRequest) Validate() error {
	if lr.MaxRuns < 0 {
		return fmt.Errorf("lease.max_runs must be non-negative, got %d", lr.MaxRuns)
	}
	if lr.RunsPerSec < 0 {
		return fmt.Errorf("lease.runs_per_sec must be non-negative, got %g", lr.RunsPerSec)
	}
	return nil
}

// LeaseDeprecationNote is the response annotation attached to leases granted
// from the deprecated bare request form.
const LeaseDeprecationNote = `bare lease requests are deprecated; nest the fields under "lease" (docs/fleet.md)`

// Lease is a granted run-range with everything a worker needs to execute it:
// the job's full spec (the worker resolves its own experiment from it) and
// the half-open run interval. The worker must report or heartbeat before
// TTLSec elapses or the coordinator requeues the remainder. On the wire it
// is nested under "lease" (symmetric with the request envelope); the bare
// form is still accepted on decode for older coordinators.
type Lease struct {
	ID     string  `json:"id"`
	JobID  string  `json:"job_id"`
	Spec   JobSpec `json:"spec"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	TTLSec float64 `json:"ttl_sec"`
	// Deprecation carries a note when the request used the deprecated bare
	// wire form.
	Deprecation string `json:"deprecation,omitempty"`
}

// leaseBody mirrors Lease for the envelope round-trip (no methods, so the
// custom Marshal/Unmarshal cannot recurse).
type leaseBody struct {
	ID          string  `json:"id"`
	JobID       string  `json:"job_id"`
	Spec        JobSpec `json:"spec"`
	From        int     `json:"from"`
	To          int     `json:"to"`
	TTLSec      float64 `json:"ttl_sec"`
	Deprecation string  `json:"deprecation,omitempty"`
}

type leaseWire struct {
	Lease *leaseBody `json:"lease,omitempty"`
	leaseBody
}

// MarshalJSON emits the v1 envelope.
func (l Lease) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Lease leaseBody `json:"lease"`
	}{leaseBody(l)})
}

// UnmarshalJSON accepts the v1 envelope and the bare legacy form.
func (l *Lease) UnmarshalJSON(data []byte) error {
	var w leaseWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Lease != nil {
		*l = Lease(*w.Lease)
		return nil
	}
	*l = Lease(w.leaseBody)
	return nil
}

// LeaseReport carries the tally of one completed prefix sub-range of the
// lease. Done marks the final report of the lease. v1 wire form nests it
// under "report":
//
//	{"report":{"worker":"w1","from":0,"to":100,"tally":{...},"done":false}}
type LeaseReport struct {
	Worker string         `json:"worker"`
	From   int            `json:"from"`
	To     int            `json:"to"`
	Tally  campaign.Tally `json:"tally"`
	Done   bool           `json:"done,omitempty"`

	// legacyFlat records a deprecated bare-form decode (see LeaseRequest).
	legacyFlat bool
}

type leaseReportBody struct {
	Worker string         `json:"worker"`
	From   int            `json:"from"`
	To     int            `json:"to"`
	Tally  campaign.Tally `json:"tally"`
	Done   bool           `json:"done,omitempty"`
}

type leaseReportWire struct {
	Report *leaseReportBody `json:"report"`

	Worker *string         `json:"worker"`
	From   *int            `json:"from"`
	To     *int            `json:"to"`
	Tally  *campaign.Tally `json:"tally"`
	Done   *bool           `json:"done"`
}

// UnmarshalJSON decodes both the v1 envelope and the deprecated bare form;
// mixing the two spellings is an error.
func (rep *LeaseReport) UnmarshalJSON(data []byte) error {
	var w leaseReportWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	flat := w.Worker != nil || w.From != nil || w.To != nil || w.Tally != nil || w.Done != nil
	if w.Report != nil {
		if flat {
			return fmt.Errorf(`lease report mixes the nested "report" envelope with deprecated bare fields`)
		}
		*rep = LeaseReport{Worker: w.Report.Worker, From: w.Report.From, To: w.Report.To,
			Tally: w.Report.Tally, Done: w.Report.Done}
		return nil
	}
	*rep = LeaseReport{legacyFlat: true}
	if w.Worker != nil {
		rep.Worker = *w.Worker
	}
	if w.From != nil {
		rep.From = *w.From
	}
	if w.To != nil {
		rep.To = *w.To
	}
	if w.Tally != nil {
		rep.Tally = *w.Tally
	}
	if w.Done != nil {
		rep.Done = *w.Done
	}
	return nil
}

// MarshalJSON always emits the v1 envelope.
func (rep LeaseReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Report leaseReportBody `json:"report"`
	}{leaseReportBody{Worker: rep.Worker, From: rep.From, To: rep.To, Tally: rep.Tally, Done: rep.Done}})
}

// LegacyFlat reports whether the report was decoded from the deprecated
// bare wire form.
func (rep LeaseReport) LegacyFlat() bool { return rep.legacyFlat }

// LeaseAck answers a report. On the wire it is nested under "ack"; the bare
// form is accepted on decode for older coordinators.
type LeaseAck struct {
	// Accepted is false when the runs were already covered (idempotent
	// duplicate) — harmless, the worker continues.
	Accepted bool `json:"accepted"`
	// Canceled tells the worker to abandon the rest of this lease: the job
	// reached a terminal state (canceled, failed, or adaptively
	// early-stopped).
	Canceled bool `json:"canceled,omitempty"`
	// TTLSec refreshes the lease deadline.
	TTLSec float64 `json:"ttl_sec,omitempty"`
	// Deprecation carries a note when the report used the deprecated bare
	// wire form.
	Deprecation string `json:"deprecation,omitempty"`
}

type leaseAckBody struct {
	Accepted    bool    `json:"accepted"`
	Canceled    bool    `json:"canceled,omitempty"`
	TTLSec      float64 `json:"ttl_sec,omitempty"`
	Deprecation string  `json:"deprecation,omitempty"`
}

type leaseAckWire struct {
	Ack *leaseAckBody `json:"ack,omitempty"`
	leaseAckBody
}

// MarshalJSON emits the v1 envelope.
func (a LeaseAck) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Ack leaseAckBody `json:"ack"`
	}{leaseAckBody(a)})
}

// UnmarshalJSON accepts the v1 envelope and the bare legacy form.
func (a *LeaseAck) UnmarshalJSON(data []byte) error {
	var w leaseAckWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Ack != nil {
		*a = LeaseAck(*w.Ack)
		return nil
	}
	*a = LeaseAck(w.leaseAckBody)
	return nil
}
