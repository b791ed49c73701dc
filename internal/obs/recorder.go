package obs

import (
	"errors"
	"math/bits"

	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Recorder assembles one Record per monitoring period and hands it to a
// Sink. It owns all its scratch — the Record, its fixed decision buffer
// and, for a grouped controller, one GroupRecord and decision buffer per
// possible HP group — so a period costs zero heap allocations regardless
// of the sink: the harnesses wire it unconditionally and pay nothing
// when the sink is NopSink.
//
// A run without a controller (UM, CT) or with the single-HP controller
// core.New builds produces dicer-trace/v1 records; a controller built by
// core.NewMulti produces v2 records, whose HP aggregates span every HP
// group and which carry one GroupRecord per CLOS group.
//
// Wiring order: NewRecorder, then AttachController / AttachChaos as the
// run's substrate dictates, optionally Start with the trace header, then
// EndPeriod once per monitoring period after the policy observed it.
type Recorder struct {
	sink      Sink
	ctl       *core.Controller
	cs        *chaos.System
	threshold float64 // saturation threshold; 0 disables the verdict

	prevFaults chaos.Stats
	timeSec    float64

	rec Record
	dec [maxDecisions]string

	// v2 scratch, nil for v1 records: one slot per possible HP group.
	groups []GroupRecord
	gdec   [][maxDecisions]string
}

// NewRecorder creates a Recorder emitting to sink (NopSink if nil).
func NewRecorder(sink Sink) *Recorder {
	if sink == nil {
		sink = NopSink{}
	}
	return &Recorder{sink: sink}
}

// AttachController subscribes the recorder to a DICER controller's
// decision stream (chained after any existing subscriber) and adopts its
// saturation threshold for the per-period verdict. A grouped controller
// switches the recorder to v2 records.
func (r *Recorder) AttachController(ctl *core.Controller) {
	if ctl == nil {
		return
	}
	r.ctl = ctl
	r.threshold = ctl.Config().BWThresholdGbps
	if ctl.Config().DisableSaturationHandling {
		r.threshold = 0
	}
	if ctl.Grouped() {
		r.groups = make([]GroupRecord, ctl.MaxGroups())
		r.gdec = make([][maxDecisions]string, ctl.MaxGroups())
	}
	ctl.ChainTrace(r.onEvent)
}

// AttachChaos points the recorder at the run's fault-injection layer so
// records carry the faults injected in their period.
func (r *Recorder) AttachChaos(cs *chaos.System) {
	if cs == nil {
		return
	}
	r.cs = cs
	r.prevFaults = cs.Stats()
}

// Start forwards the trace header to the sink when it wants one.
func (r *Recorder) Start(h Header) error {
	if hs, ok := r.sink.(HeaderSink); ok {
		return hs.Start(h)
	}
	return nil
}

// onEvent folds one controller decision into the period's record: into
// the record's own decisions for v1, into its group's record for v2.
// Either way the last decision's cause tag becomes the period's
// provenance (classify may override it with guard-veto / chaos-masked).
func (r *Recorder) onEvent(e core.Event) {
	r.rec.Cause = e.Cause
	if r.groups == nil {
		if n := len(r.rec.Decisions); n < maxDecisions {
			r.dec[n] = string(e.Kind)
			r.rec.Decisions = r.dec[:n+1]
		}
		return
	}
	if e.Group < 0 || e.Group >= len(r.groups) {
		return
	}
	if e.Kind == core.EventRecluster {
		r.rec.Reclustered = true
	}
	g := &r.groups[e.Group]
	if n := len(g.Decisions); n < maxDecisions {
		r.gdec[e.Group][n] = string(e.Kind)
		g.Decisions = r.gdec[e.Group][:n+1]
	}
	g.Cause = e.Cause
}

// EndPeriod assembles and emits the record for one monitoring period.
// p is the period's counter reading, sys the substrate after the
// policy's actuation, observeErr the raw error returned by the policy's
// Observe (nil when the period was clean; injected-fault and invariant
// errors are classified into the record, anything else lands in Err).
func (r *Recorder) EndPeriod(period int, p resctrl.Period, sys resctrl.System, observeErr error) {
	rec := &r.rec
	rec.Period = period
	r.timeSec += p.Seconds
	rec.TimeSec = r.timeSec

	// HP groups are CLOS 0..k-1; without a controller the HP is CLOS 0
	// and the BEs share CLOS 1, as under the single-HP controller.
	k, beClos := 1, policy.BEClos
	if r.ctl != nil {
		k, beClos = r.ctl.NumGroups(), r.ctl.BEClos()
	}

	// Inputs: HP totals span every HP group.
	var hpSum float64
	hpN := 0
	for _, c := range p.Cores {
		if c.Clos < k {
			hpSum += c.IPC
			hpN++
		}
	}
	rec.HPIPC = 0
	if hpN > 0 {
		rec.HPIPC = hpSum / float64(hpN)
	}
	rec.BEMeanIPC = p.ClosMeanIPC(beClos)
	rec.HPBWGbps = 0
	rec.HPOccBytes = 0
	var hpMask uint64
	for gi := 0; gi < k; gi++ {
		rec.HPBWGbps += p.GroupBW(gi)
		hpMask |= sys.CBM(gi)
	}
	for _, g := range p.Groups {
		if g.Clos < k {
			rec.HPOccBytes += g.OccupancyBytes
		}
	}
	rec.TotalGbps = p.TotalGbps
	rec.Saturated = r.threshold > 0 && p.TotalGbps > r.threshold

	// Outputs. Decisions and Cause were folded in by onEvent during
	// Observe. State and the intended HPWays are the single-HP
	// controller's; a grouped controller reports them per group.
	rec.HPMask = hpMask
	rec.BEMask = sys.CBM(beClos)
	rec.State = ""
	rec.HPWays = bits.OnesCount64(hpMask)
	if r.groups != nil {
		rec.Groups = r.groups[:k]
		for gi := 0; gi < k; gi++ {
			g := &r.groups[gi]
			g.Group = gi
			g.IPC = p.ClosMeanIPC(gi)
			g.BWGbps = p.GroupBW(gi)
			g.Ways = r.ctl.GroupWays(gi)
			g.Mask = sys.CBM(gi)
			g.State = r.ctl.GroupState(gi)
		}
	} else if r.ctl != nil {
		rec.State = r.ctl.State()
		rec.HPWays = r.ctl.HPWays()
	}

	// Substrate annotations.
	if r.cs != nil {
		cur := r.cs.Stats()
		rec.Faults = cur.Sub(r.prevFaults)
		r.prevFaults = cur
	} else {
		rec.Faults = chaos.Stats{}
	}
	rec.Tolerated = false
	rec.Guard = ""
	rec.Err = ""
	if observeErr != nil {
		r.classify(observeErr)
	}

	r.sink.Emit(rec)
	rec.Decisions = r.dec[:0]
	rec.Cause = ""
	for gi := range r.groups {
		r.groups[gi].Decisions = nil
		r.groups[gi].Cause = ""
	}
	rec.Groups = nil
	rec.Reclustered = false
}

// classify sorts an Observe error into the record's annotation fields
// and overrides the decision cause with the substrate-level provenance.
// Kept off the happy path so a clean period stays allocation-free.
func (r *Recorder) classify(err error) {
	if errors.Is(err, chaos.ErrInjected) {
		r.rec.Tolerated = true
		r.rec.Cause = "chaos-masked"
	}
	var ie *invariant.Error
	if errors.As(err, &ie) {
		r.rec.Guard = ie.Error()
		r.rec.Cause = "guard-veto"
	} else if !r.rec.Tolerated {
		r.rec.Err = err.Error()
	}
}
