package nic

import (
	"strings"

	"gompix/internal/metrics"
)

// epMetrics instruments one endpoint. The CQ/RQ depth gauges track the
// backlog MPI progress has not yet drained — the paper's wait blocks
// made visible — with high-water marks for burst diagnosis.
type epMetrics struct {
	reg              *metrics.Registry
	cqDepth, rqDepth *metrics.Gauge
	sent, received   *metrics.Counter
	completed        *metrics.Counter
}

// UseMetrics wires the endpoint to the registry under the given scope
// prefix (e.g. "rank0.vci0.nic"). Call before traffic flows.
func (ep *Endpoint) UseMetrics(reg *metrics.Registry, scope string) {
	if reg == nil {
		return
	}
	ep.met = &epMetrics{
		reg:       reg,
		cqDepth:   reg.Gauge(scope + ".cq.depth"),
		rqDepth:   reg.Gauge(scope + ".rq.depth"),
		sent:      reg.Counter(scope + ".sent"),
		received:  reg.Counter(scope + ".received"),
		completed: reg.Counter(scope + ".completed"),
	}
}

// relMetrics instruments one reliability layer: retransmission volume,
// backoff rounds, frames failed on a verdict, and the protocol's
// duplicate/reorder absorption — the counters chaos tests assert deltas on.
type relMetrics struct {
	reg            *metrics.Registry
	retransmits    *metrics.Counter
	backoffRounds  *metrics.Counter
	acksSent       *metrics.Counter
	acksReceived   *metrics.Counter
	dupsDropped    *metrics.Counter
	outOfOrder     *metrics.Counter
	framesFailed   *metrics.Counter
	outstandingGus *metrics.Gauge
}

// UseMetrics wires the wrapped link's instruments under scope and the
// layer's beside them, scope's last element replaced by "rel"
// ("rank0.vci0.nic" → "rank0.vci0.rel"). Call before traffic flows.
func (r *Reliable) UseMetrics(reg *metrics.Registry, scope string) {
	r.link.UseMetrics(reg, scope)
	if reg == nil {
		return
	}
	scope = scope[:strings.LastIndexByte(scope, '.')+1] + "rel"
	r.met = &relMetrics{
		reg:            reg,
		retransmits:    reg.Counter(scope + ".retransmits"),
		backoffRounds:  reg.Counter(scope + ".backoff.rounds"),
		acksSent:       reg.Counter(scope + ".acks.sent"),
		acksReceived:   reg.Counter(scope + ".acks.received"),
		dupsDropped:    reg.Counter(scope + ".dups.dropped"),
		outOfOrder:     reg.Counter(scope + ".out_of_order"),
		framesFailed:   reg.Counter(scope + ".frames.failed"),
		outstandingGus: reg.Gauge(scope + ".outstanding"),
	}
}
