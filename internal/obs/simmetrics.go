package obs

// SimMetrics is the standard metric set of one engine run, updated
// from the event stream: it is a Tracer, so it composes with file
// sinks and ring buffers through Tee. All updates are atomic and
// allocation-free.
//
// Metric names are flat dotted strings under the "sim." prefix so a
// registry can also carry sweep- or CLI-level metrics without
// collisions.
type SimMetrics struct {
	Rounds      *Counter // completed rounds
	Allocs      *Counter // objects placed
	Frees       *Counter // objects freed (including free-on-move)
	Moves       *Counter // engine-validated relocations
	MoveRejects *Counter // manager move attempts refused (budget, overlap)
	Sweeps      *Counter // referee full-heap sweeps
	Violations  *Gauge   // referee violations observed so far

	Live      *Gauge // live words at the last round boundary
	HighWater *Gauge // HS at the last round boundary
	Budget    *Gauge // remaining compaction budget (words)

	AllocSize    *Histogram // words per allocation
	FreeSpan     *Histogram // words per freed span
	MoveDistance *Histogram // |to − from| per move
	RoundNanos   *Histogram // wall clock per round
}

// NewSimMetrics registers the standard engine metrics in r and
// returns the bundle.
func NewSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		Rounds:       r.Counter("sim.rounds", "Engine rounds completed."),
		Allocs:       r.Counter("sim.allocs", "Objects placed."),
		Frees:        r.Counter("sim.frees", "Objects freed, frees on move included."),
		Moves:        r.Counter("sim.moves", "Object relocations the engine validated."),
		MoveRejects:  r.Counter("sim.move_rejects", "Manager move attempts the engine refused (budget or overlap)."),
		Sweeps:       r.Counter("sim.referee_sweeps", "Full-heap sweeps the referee ran."),
		Violations:   r.Gauge("sim.referee_violations", "Referee violations observed so far."),
		Live:         r.Gauge("sim.live_words", "Live words at the last round boundary."),
		HighWater:    r.Gauge("sim.high_water", "Heap size HS, the highest address used, at the last round boundary, in words."),
		Budget:       r.Gauge("sim.budget_remaining", "Compaction budget left, in words."),
		AllocSize:    r.Histogram("sim.alloc_size", "Words per allocation."),
		FreeSpan:     r.Histogram("sim.free_span", "Words per freed span."),
		MoveDistance: r.Histogram("sim.move_distance", "Words between a moved object's old and new address."),
		RoundNanos:   r.Histogram("sim.round_nanos", "Wall-clock nanoseconds per engine round."),
	}
}

// Emit implements Tracer.
//
//compactlint:noalloc
func (m *SimMetrics) Emit(ev Event) {
	switch ev.Kind {
	case EvAlloc:
		m.Allocs.Inc()
		m.AllocSize.Observe(ev.Size)
	case EvFree:
		m.Frees.Inc()
		m.FreeSpan.Observe(ev.Size)
	case EvMove:
		m.Moves.Inc()
		d := ev.Addr - ev.From
		if d < 0 {
			d = -d
		}
		m.MoveDistance.Observe(d)
	case EvMoveReject:
		m.MoveRejects.Inc()
	case EvRound:
		m.Rounds.Inc()
		m.Live.Set(ev.Live)
		m.HighWater.Set(ev.HighWater)
		m.Budget.Set(ev.Budget)
		m.RoundNanos.Observe(ev.Nanos)
	case EvSweep:
		m.Sweeps.Inc()
		m.Violations.Set(int64(ev.Violations))
	}
}
