package sim

import (
	"fmt"

	"beqos/internal/dist"
	"beqos/internal/policy"
	"beqos/internal/rng"
	"beqos/internal/utility"
	"beqos/internal/workload"
)

// simStreamIndex derives the simulator's own random source (see
// prepare). It differs from the workload package's modulation index, so
// the two substreams never coincide.
const simStreamIndex = 0x51a1

// Policy selects the link architecture.
type Policy int

const (
	// BestEffort admits every flow and splits capacity evenly.
	BestEffort Policy = iota
	// Reservation admits at most KMax concurrent flows; excess requests
	// are rejected (and may retry, if configured).
	Reservation
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case BestEffort:
		return "best-effort"
	case Reservation:
		return "reservation"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// RetryConfig enables retry behavior for rejected reservation requests,
// mirroring the paper's §5.2 extension.
type RetryConfig struct {
	// MeanBackoff is the mean of the exponential wait before a retry.
	MeanBackoff float64
	// Penalty is the utility cost α charged per retry.
	Penalty float64
	// MaxAttempts caps total attempts per flow (≥ 1). Flows exceeding it
	// give up with only their accumulated penalties.
	MaxAttempts int
}

// Config describes one simulation run.
type Config struct {
	// Capacity is the link capacity C.
	Capacity float64
	// Util is the application utility function π. It may be nil when
	// Classes is set.
	Util utility.Function
	// Classes, when non-empty, gives each of the scenario's flow classes
	// its own utility (indexed like Workload.Classes; the scenario supplies
	// their weights and demand scales): §5's heterogeneous-flows extension,
	// dynamically. Without it every class is scored with Util at its
	// demand scale. When Util is nil the admission threshold is derived
	// from the population's expected utility (a utility.Mixture), matching
	// the analytical model's treatment.
	Classes []utility.Function
	// Policy selects best-effort or reservation-capable behavior.
	Policy Policy
	// KMax is the reservation admission threshold; 0 derives it from the
	// utility function via kmax(C) = argmax k·π(C/k).
	KMax int
	// Admission, when non-nil, replaces the built-in counting check with a
	// pluggable admission policy (Reservation only): each request is offered
	// to the policy at the flow's virtual arrival time (1 virtual second =
	// 1e9 policy nanoseconds, rate 1, the flow's class index as its class),
	// and each departure is returned through Release. Policies are stateful;
	// a Config carrying one must not be shared across concurrent runs — see
	// RunReplicationsWorkers.
	Admission policy.Policy
	// Workload is the run's traffic (internal/workload): arrivals, holding
	// times, classes and phases all come from the scenario's deterministic
	// stream, seeded from Seed1/Seed2. The run lasts the scenario's
	// duration and excludes its warmup from all statistics.
	Workload *workload.Scenario
	// WorkloadRecord, when non-nil, observes every consumed workload
	// record in stream order — the golden-determinism trace hook.
	WorkloadRecord func(workload.Flow)
	// Samples is the paper's §5.1 S: a flow's performance is π at the
	// worst of S load observations (its arrival instant plus S−1 uniform
	// instants over its lifetime). Samples = 0 scores flows by their
	// time-average π instead.
	Samples int
	// Retry, if non-nil, makes rejected flows retry (Reservation only).
	Retry *RetryConfig
	// Seed1, Seed2 seed the deterministic random source.
	Seed1, Seed2 uint64
}

// Result reports a simulation run's measurements (post-warmup).
type Result struct {
	// Occupancy is the time-weighted distribution of concurrent admitted
	// flows, ready to feed into the analytical model.
	Occupancy *dist.Empirical
	// ArrivalLoad is the distribution of the load level seen by freshly
	// arriving flows (itself included) — a PASTA estimator of the paper's
	// size-biased "flow's-eye" distribution Q(k). For memoryless arrivals
	// it matches dist.NewSizeBiased of the stationary law.
	ArrivalLoad *dist.Empirical
	// AvgOccupancy is its mean.
	AvgOccupancy float64
	// MeanUtility is the average per-flow utility over all flows that
	// arrived after warmup (rejected flows contribute 0, retries their
	// penalties).
	MeanUtility float64
	// Flows counts flows arriving post-warmup; Admitted and Rejected
	// partition their final fates; Retries counts retry attempts.
	Flows    int
	Admitted int
	Rejected int
	Retries  int
	// BlockingRate is the per-attempt rejection rate.
	BlockingRate float64
	// PeakOccupancy is the largest concurrent flow count observed.
	PeakOccupancy int
	// Events counts discrete events dispatched (arrivals, departures,
	// sample instants, retries); ArenaPeak is the flow arena's high-water
	// mark (live + free slots). Together they
	// bound the run's compute and memory footprint.
	Events    uint64
	ArenaPeak int
	// ClassUtility and ClassFlows report per-class mean utilities and flow
	// counts when the scenario has flow classes.
	ClassUtility []float64
	ClassFlows   []int
	// PhaseFlows, PhaseAdmitted and PhaseRejected tally post-warmup flows
	// by final fate per scenario phase (indexed like Workload.Phases).
	PhaseFlows    []int
	PhaseAdmitted []int
	PhaseRejected []int
}

// flow carries per-flow measurement state. Flows live in simState's arena
// and are recycled through a free list: a flow index is valid from its
// arrival event until its departure (or final rejection), after which the
// slot is reused — no event ever outlives the flow it references, because
// §5.1 sample instants are drawn strictly inside the holding interval.
type flow struct {
	admittedAt float64
	utilAccum  float64 // ∫ π dt reference at admission (time-average mode)
	hold       float64 // holding time, drawn by the workload stream
	attempts   int32
	maxLoad    int32
	class      int32 // scenario class index (0 when homogeneous)
	phase      int32 // scenario phase index
	counted    bool  // true if the flow arrived post-warmup
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (Result, error) {
	s, err := prepare(cfg)
	if err != nil {
		return Result{}, err
	}
	s.run()
	return s.result(), nil
}

// prepare validates cfg and builds the initial simulation state.
func prepare(cfg Config) (*simState, error) {
	if !(cfg.Capacity > 0) {
		return nil, fmt.Errorf("sim: capacity must be positive, got %g", cfg.Capacity)
	}
	wl := cfg.Workload
	if wl == nil {
		return nil, fmt.Errorf("sim: a run needs a Workload scenario")
	}
	classes, err := buildClasses(wl.Classes, cfg.Classes, cfg.Util)
	if err != nil {
		return nil, err
	}
	if cfg.Util == nil && len(classes) > 0 {
		if cfg.Util, err = classMixture(wl.Classes, classes); err != nil {
			return nil, err
		}
	}
	if cfg.Util == nil {
		return nil, fmt.Errorf("sim: utility must be non-nil")
	}
	if cfg.Samples < 0 {
		return nil, fmt.Errorf("sim: samples must be nonnegative, got %d", cfg.Samples)
	}
	if cfg.Retry != nil {
		if cfg.Policy != Reservation {
			return nil, fmt.Errorf("sim: retries only apply to the reservation policy")
		}
		if !(cfg.Retry.MeanBackoff > 0) || cfg.Retry.MaxAttempts < 1 || cfg.Retry.Penalty < 0 {
			return nil, fmt.Errorf("sim: invalid retry config %+v", *cfg.Retry)
		}
	}
	if cfg.Admission != nil && cfg.Policy != Reservation {
		return nil, fmt.Errorf("sim: an admission policy requires the reservation policy")
	}
	kmax := cfg.KMax
	if cfg.Policy == Reservation && kmax == 0 {
		if cfg.Admission != nil && cfg.Admission.Bound() > 0 {
			kmax = cfg.Admission.Bound()
		} else {
			k, ok := utility.KMax(cfg.Util, cfg.Capacity)
			if !ok {
				return nil, fmt.Errorf("sim: utility %q has no finite kmax; pass KMax explicitly", cfg.Util.Name())
			}
			kmax = k
		}
	}
	if cfg.Policy == Reservation && kmax < 1 {
		return nil, fmt.Errorf("sim: reservation admits no flows at capacity %g", cfg.Capacity)
	}

	// The workload stream seeds its primary source from (Seed1, Seed2)
	// itself, so the simulator's own draws (sample instants, retry
	// backoffs) take a substream there; drawing from a twin of the stream's
	// source would replay its variates.
	seed1, seed2 := rng.Substream(cfg.Seed1, cfg.Seed2, simStreamIndex)
	np := len(wl.Phases)
	tally := make([]int, 3*np) // one backing array for the phase tallies
	stride := 1 + len(classes) // a utility table row (see simState.pi)
	s := &simState{
		cfg:     cfg,
		classes: classes,
		kmax:    kmax,
		warmup:  wl.Warmup,
		horizon: wl.Duration(),
		src:     rng.New(seed1, seed2),
		eng:     &Engine{pq: make([]event, 0, 256)},
		wl:      wl.Stream(cfg.Seed1, cfg.Seed2),
		// Preallocate the event heap, accumulators and arenas at plausible
		// steady-state sizes so the hot loop allocates only on (rare,
		// amortized) growth.
		occTime:       make([]float64, 0, 128),
		arrCounts:     make([]float64, 0, 128),
		pi:            make([]float64, stride, 128*stride), // row 0 is never read
		piStride:      stride,
		flows:         make([]flow, 0, 256),
		free:          make([]int32, 0, 256),
		phaseFlows:    tally[:np:np],
		phaseAdmitted: tally[np : 2*np : 2*np],
		phaseRejected: tally[2*np:],
	}
	if len(classes) > 0 {
		s.piAccumClass = make([]float64, len(classes))
		s.utilSumClass = make([]float64, len(classes))
		s.flowsClass = make([]int, len(classes))
	}
	return s, nil
}

// run pulls the first workload record and drains the event loop to the
// horizon.
func (s *simState) run() {
	s.pullRecord()
	s.loop()
}

// pullRecord advances the workload stream into the one-record lookahead.
func (s *simState) pullRecord() {
	rec, ok := s.wl.Next()
	s.pending = ok
	if !ok {
		return
	}
	if s.cfg.WorkloadRecord != nil {
		s.cfg.WorkloadRecord(rec)
	}
	s.next = rec
}

// simState carries the mutable simulation state.
type simState struct {
	cfg     Config
	classes []class
	kmax    int
	warmup  float64 // statistics exclude [0, warmup)
	horizon float64 // the scenario's duration
	src     *rng.Source
	eng     *Engine

	// flows is the flow arena; free lists recycled slots.
	flows []flow
	free  []int32

	// wl is the workload stream and next, when pending, the pulled record
	// still to land. phaseFlows/Admitted/Rejected tally post-warmup fates
	// per scenario phase.
	wl            *workload.Stream
	next          workload.Flow
	pending       bool
	phaseFlows    []int
	phaseAdmitted []int
	phaseRejected []int

	active    int
	occTime   []float64 // time-weighted occupancy histogram (post-warmup)
	arrCounts []float64 // load level seen at fresh arrivals (post-warmup)
	occLast   float64   // last time the occupancy changed (or warmup start)
	piAccum   float64   // ∫ π(C/n(t)) dt, for time-average flow utility
	// pi tabulates utility by occupancy n, one row of piStride entries per
	// n up to the peak: π(C/n), then each class's π_i(C/(n·d_i)).
	pi       []float64
	piStride int
	// piAccumClass holds per-class ∫ π_i(C/(n·d_i)) dt in heterogeneous
	// runs; utilSumClass and flowsClass tally per-class outcomes.
	piAccumClass []float64
	utilSumClass []float64
	flowsClass   []int
	peak         int
	utilSum      float64
	nflows       int
	admitted     int
	rejected     int
	retries      int
	attempts     int
}

// loop merges the two time-ordered sources up to the horizon: the
// workload stream's next record and the engine's queue of departures,
// sample instants and retries (a record lands before a queued event at
// the same instant). This is the simulator's entire steady state: no
// closures, no interface boxing, no allocation beyond amortized slice
// growth.
func (s *simState) loop() {
	for {
		if rec := &s.next; s.pending && rec.At <= s.eng.peek() && rec.At <= s.horizon {
			s.eng.advanceTo(rec.At)
			fi := s.newFlow()
			f := &s.flows[fi]
			f.counted = rec.At >= s.warmup
			f.class = int32(rec.Class)
			f.phase = int32(rec.Phase)
			f.hold = rec.Hold
			s.arrive(fi)
			s.pullRecord()
			continue
		}
		ev, ok := s.eng.next(s.horizon)
		if !ok {
			return
		}
		switch ev.kind {
		case evDepart:
			s.depart(ev.ref)
			s.freeFlow(ev.ref)
		case evSample:
			f := &s.flows[ev.ref]
			if int32(s.active) > f.maxLoad {
				f.maxLoad = int32(s.active)
			}
		case evRetry:
			s.arrive(ev.ref)
		}
	}
}

// newFlow takes a zeroed slot from the free list (or grows the arena).
func (s *simState) newFlow() int32 {
	if n := len(s.free); n > 0 {
		fi := s.free[n-1]
		s.free = s.free[:n-1]
		return fi
	}
	s.flows = append(s.flows, flow{})
	return int32(len(s.flows) - 1)
}

// freeFlow recycles a slot once no scheduled event references it.
func (s *simState) freeFlow(fi int32) {
	s.flows[fi] = flow{}
	s.free = append(s.free, fi)
}

// growPi extends the utility table through row n. An entry is the
// utility evaluated at its occupancy's share, C/n (over the class's
// demand), so reading it gives the same float as evaluating there.
func (s *simState) growPi(n int) {
	for k := len(s.pi) / s.piStride; k <= n; k++ {
		share := s.cfg.Capacity / float64(k)
		s.pi = append(s.pi, s.cfg.Util.Eval(share))
		for _, c := range s.classes {
			s.pi = append(s.pi, c.util.Eval(share/c.demand))
		}
	}
}

// piAt returns the utility a flow of class ci derives at occupancy n
// (1 ≤ n ≤ peak).
func (s *simState) piAt(n int, ci int32) float64 {
	i := n * s.piStride
	if len(s.classes) > 0 {
		i += 1 + int(ci)
	}
	return s.pi[i]
}

// advance accounts occupancy time up to now.
func (s *simState) advance() {
	now := s.eng.Now()
	start := s.occLast
	if start < s.warmup {
		start = s.warmup
	}
	if now > start {
		for len(s.occTime) <= s.active {
			s.occTime = append(s.occTime, 0)
		}
		s.occTime[s.active] += now - start
		if s.active > 0 {
			row := s.pi[s.active*s.piStride:]
			s.piAccum += (now - start) * row[0]
			for i := range s.piAccumClass {
				s.piAccumClass[i] += (now - start) * row[1+i]
			}
		}
	}
	s.occLast = now
}

func (s *simState) setActive(n int) {
	s.advance()
	s.active = n
	if n > s.peak {
		s.peak = n
		s.growPi(n)
	}
}

// arrive handles one flow request (first attempt or retry).
func (s *simState) arrive(fi int32) {
	f := &s.flows[fi]
	f.attempts++
	if f.counted {
		s.attempts++
		if f.attempts == 1 {
			s.nflows++
			if len(s.classes) > 0 {
				s.flowsClass[f.class]++
			}
			s.phaseFlows[f.phase]++
			// PASTA sample of the demand process: the load level this
			// flow experiences, itself included.
			level := s.active + 1
			for len(s.arrCounts) <= level {
				s.arrCounts = append(s.arrCounts, 0)
			}
			s.arrCounts[level]++
		}
	}
	if s.cfg.Policy == Reservation {
		if adm := s.cfg.Admission; adm != nil {
			dec := adm.Admit(s.nowNs(), uint64(fi)+1, 1, uint8(f.class))
			if !dec.Admit {
				s.reject(fi)
				return
			}
		} else if s.active >= s.kmax {
			s.reject(fi)
			return
		}
	}
	s.admit(fi)
}

func (s *simState) admit(fi int32) {
	f := &s.flows[fi]
	if f.counted {
		s.admitted++
		s.phaseAdmitted[f.phase]++
	}
	s.setActive(s.active + 1)
	f.maxLoad = int32(s.active)
	if len(s.classes) > 0 {
		f.utilAccum = s.piAccumClass[f.class]
	} else {
		f.utilAccum = s.piAccum
	}
	f.admittedAt = s.eng.Now()
	holding := f.hold
	// Extra load samples at uniform instants over the flow's lifetime
	// (§5.1): record the concurrent flow count at each. Sample instants
	// are strictly inside [0, holding), so every evSample fires before the
	// flow's evDepart recycles its slot.
	for i := 1; i < s.cfg.Samples; i++ {
		at := s.src.Float64() * holding
		s.eng.scheduleTagged(at, evSample, fi)
	}
	s.eng.scheduleTagged(holding, evDepart, fi)
}

// nowNs is the current virtual time on the admission policies' clock:
// one virtual second is 1e9 policy nanoseconds.
func (s *simState) nowNs() int64 {
	return int64(s.eng.Now() * 1e9)
}

func (s *simState) depart(fi int32) {
	f := &s.flows[fi]
	if s.cfg.Admission != nil {
		s.cfg.Admission.Release(s.nowNs(), 1)
	}
	s.setActive(s.active - 1)
	if !f.counted {
		return
	}
	duration := s.eng.Now() - f.admittedAt
	var pi float64
	if s.cfg.Samples == 0 && duration > 0 {
		// Time-average performance over the flow's lifetime.
		accum := s.piAccum
		if len(s.classes) > 0 {
			accum = s.piAccumClass[f.class]
		}
		pi = (accum - f.utilAccum) / duration
	} else {
		// Worst-of-S-samples performance.
		pi = s.piAt(int(f.maxLoad), f.class)
	}
	score := pi - s.penalty(f)
	s.utilSum += score
	if len(s.classes) > 0 {
		s.utilSumClass[f.class] += score
	}
}

func (s *simState) reject(fi int32) {
	f := &s.flows[fi]
	if s.cfg.Retry != nil && int(f.attempts) < s.cfg.Retry.MaxAttempts {
		if f.counted {
			s.retries++
		}
		s.eng.scheduleTagged(s.src.Exp(s.cfg.Retry.MeanBackoff), evRetry, fi)
		return
	}
	if f.counted {
		s.rejected++
		s.phaseRejected[f.phase]++
		s.utilSum -= s.penalty(f)
		if len(s.classes) > 0 {
			s.utilSumClass[f.class] -= s.penalty(f)
		}
	}
	s.freeFlow(fi)
}

// penalty returns the accumulated retry penalty α·(attempts − 1).
func (s *simState) penalty(f *flow) float64 {
	if s.cfg.Retry == nil || f.attempts <= 1 {
		return 0
	}
	return s.cfg.Retry.Penalty * float64(f.attempts-1)
}

func (s *simState) result() Result {
	s.advance() // account the final stretch up to the horizon
	res := Result{
		Flows:         s.nflows,
		Admitted:      s.admitted,
		Rejected:      s.rejected,
		Retries:       s.retries,
		PeakOccupancy: s.peak,
		Events:        s.eng.Dispatched(),
		ArenaPeak:     len(s.flows),
		PhaseFlows:    s.phaseFlows,
		PhaseAdmitted: s.phaseAdmitted,
		PhaseRejected: s.phaseRejected,
	}
	if len(s.occTime) > 0 {
		if emp, err := dist.NewEmpirical(s.occTime); err == nil {
			res.Occupancy = emp
			res.AvgOccupancy = emp.Mean()
		}
	}
	if len(s.arrCounts) > 0 {
		if emp, err := dist.NewEmpirical(s.arrCounts); err == nil {
			res.ArrivalLoad = emp
		}
	}
	if s.nflows > 0 {
		res.MeanUtility = s.utilSum / float64(s.nflows)
	}
	if s.attempts > 0 {
		blocked := s.attempts - s.admitted
		res.BlockingRate = float64(blocked) / float64(s.attempts)
	}
	if len(s.classes) > 0 {
		res.ClassFlows = s.flowsClass
		res.ClassUtility = s.utilSumClass
		for i, n := range s.flowsClass {
			if n > 0 {
				res.ClassUtility[i] /= float64(n)
			}
		}
	}
	return res
}
