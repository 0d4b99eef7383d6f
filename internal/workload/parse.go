package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Parse reads a workload scenario spec. The format is line-based:
//
//	# comment
//	scenario <name>                 # required, first directive
//	prefill <n>                     # optional: flows injected at t=0
//	warmup <t>                      # optional: measurement warmup prefix
//	class <name> weight=<w> [demand=<d>] [tier=<n>]
//	phase <name> <duration>         # at least one
//	arrivals poisson rate=<r>
//	arrivals mmpp rate=<r> burst=<b> sojourn=<s>
//	arrivals gamma rate=<r> cv=<c>
//	arrivals session rate=<r> scale=<s> shape=<a>
//	holding exp mean=<m>
//	holding pareto mean=<m> shape=<a>
//	holding lognormal mean=<m> sigma=<s>
//	event step at=<t> mult=<m>
//	event flash at=<t> mult=<m> width=<w>
//	event sine period=<p> depth=<d>
//
// scenario-level directives (prefill, warmup, class) must precede the
// first phase; arrivals/holding/event attach to the most recent phase.
// Every rate= counts flows per unit time. A session phase lands its flows
// in batches of min(⌊Pareto(scale, shape)⌋, MaxPrefill) at Poisson
// instants; like a gamma phase it takes no events. Errors name the
// offending line.
func Parse(text string) (*Scenario, error) {
	s := &Scenario{}
	var cur *Phase
	classNames := map[string]bool{}
	phaseNames := map[string]bool{}
	for ln, raw := range strings.Split(text, "\n") {
		lineNo := ln + 1
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		dir := fields[0]
		if s.Name == "" && dir != "scenario" {
			return nil, specErr(lineNo, "spec must begin with a scenario directive, got %q", dir)
		}
		switch dir {
		case "scenario":
			if s.Name != "" {
				return nil, specErr(lineNo, "duplicate scenario directive (already %q)", s.Name)
			}
			if len(fields) != 2 {
				return nil, specErr(lineNo, "usage: scenario <name>")
			}
			s.Name = fields[1]

		case "prefill":
			if cur != nil {
				return nil, specErr(lineNo, "prefill must precede the first phase")
			}
			if len(fields) != 2 {
				return nil, specErr(lineNo, "usage: prefill <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > MaxPrefill {
				return nil, specErr(lineNo, "prefill %q must be an integer in [0, %d]", fields[1], MaxPrefill)
			}
			s.Prefill = n

		case "warmup":
			if cur != nil {
				return nil, specErr(lineNo, "warmup must precede the first phase")
			}
			if len(fields) != 2 {
				return nil, specErr(lineNo, "usage: warmup <t>")
			}
			w, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !(w >= 0) || w > MaxDuration {
				return nil, specErr(lineNo, "warmup %q must be a number in [0, %g]", fields[1], float64(MaxDuration))
			}
			s.Warmup = w

		case "class":
			if cur != nil {
				return nil, specErr(lineNo, "class must precede the first phase")
			}
			if len(fields) < 3 {
				return nil, specErr(lineNo, "usage: class <name> weight=<w> [demand=<d>] [tier=<n>]")
			}
			if len(s.Classes) >= MaxClasses {
				return nil, specErr(lineNo, "too many classes (max %d)", MaxClasses)
			}
			name := fields[1]
			if classNames[name] {
				return nil, specErr(lineNo, "duplicate class %q", name)
			}
			classNames[name] = true
			kv, err := parseKV(lineNo, "class", fields[2:])
			if err != nil {
				return nil, err
			}
			c := Class{Name: name, Demand: 1}
			w, ok := kv.take("weight")
			if !ok || !(w > 0) || math.IsInf(w, 0) {
				return nil, specErr(lineNo, "class %s needs weight= > 0", name)
			}
			c.Weight = w
			if d, ok := kv.take("demand"); ok {
				if !(d > 0) || d > 1e6 {
					return nil, specErr(lineNo, "class %s demand= must be in (0, 1e6]", name)
				}
				c.Demand = d
			}
			if t, ok := kv.take("tier"); ok {
				if t != math.Trunc(t) || t < 0 || t > MaxTier {
					return nil, specErr(lineNo, "class %s tier= must be an integer in [0, %d]", name, MaxTier)
				}
				c.Tier = uint8(t)
			}
			if err := kv.empty(); err != nil {
				return nil, err
			}
			s.Classes = append(s.Classes, c)

		case "phase":
			if len(fields) != 3 {
				return nil, specErr(lineNo, "usage: phase <name> <duration>")
			}
			if len(s.Phases) >= MaxPhases {
				return nil, specErr(lineNo, "too many phases (max %d)", MaxPhases)
			}
			name := fields[1]
			if phaseNames[name] {
				return nil, specErr(lineNo, "duplicate phase %q", name)
			}
			phaseNames[name] = true
			d, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || !(d > 0) || d > MaxDuration {
				return nil, specErr(lineNo, "phase %s duration %q must be a number in (0, %g]", name, fields[2], float64(MaxDuration))
			}
			s.Phases = append(s.Phases, Phase{Name: name, Duration: d})
			cur = &s.Phases[len(s.Phases)-1]

		case "arrivals":
			if cur == nil {
				return nil, specErr(lineNo, "arrivals outside a phase")
			}
			if cur.Arrivals.Kind != "" {
				return nil, specErr(lineNo, "phase %s already has arrivals", cur.Name)
			}
			if len(fields) < 2 {
				return nil, specErr(lineNo, "usage: arrivals poisson|mmpp|gamma|session key=value...")
			}
			kv, err := parseKV(lineNo, "arrivals", fields[2:])
			if err != nil {
				return nil, err
			}
			a := ArrivalSpec{Kind: fields[1]}
			a.Rate, _ = kv.take("rate")
			switch a.Kind {
			case "mmpp":
				a.Burst, _ = kv.take("burst")
				a.Sojourn, _ = kv.take("sojourn")
			case "gamma":
				a.CV, _ = kv.take("cv")
			case "session":
				a.Scale, _ = kv.take("scale")
				a.Shape, _ = kv.take("shape")
			}
			if err := a.check(); err != nil {
				return nil, specErr(lineNo, "%v", err)
			}
			if err := kv.empty(); err != nil {
				return nil, err
			}
			cur.Arrivals = a

		case "holding":
			if cur == nil {
				return nil, specErr(lineNo, "holding outside a phase")
			}
			if cur.Holding.Kind != "" {
				return nil, specErr(lineNo, "phase %s already has holding", cur.Name)
			}
			if len(fields) < 2 {
				return nil, specErr(lineNo, "usage: holding exp|pareto|lognormal key=value...")
			}
			kv, err := parseKV(lineNo, "holding", fields[2:])
			if err != nil {
				return nil, err
			}
			h := HoldSpec{Kind: fields[1]}
			h.Mean, _ = kv.take("mean")
			switch h.Kind {
			case "pareto":
				h.Shape, _ = kv.take("shape")
			case "lognormal":
				h.Sigma, _ = kv.take("sigma")
			}
			if err := h.check(); err != nil {
				return nil, specErr(lineNo, "%v", err)
			}
			if err := kv.empty(); err != nil {
				return nil, err
			}
			cur.Holding = h

		case "event":
			if cur == nil {
				return nil, specErr(lineNo, "event outside a phase")
			}
			if len(fields) < 2 {
				return nil, specErr(lineNo, "usage: event step|flash|sine key=value...")
			}
			kv, err := parseKV(lineNo, "event", fields[2:])
			if err != nil {
				return nil, err
			}
			ev := Event{Kind: fields[1]}
			switch ev.Kind {
			case "step", "flash":
				if len(cur.Events) >= MaxEvents {
					return nil, specErr(lineNo, "too many events in phase %s (max %d)", cur.Name, MaxEvents)
				}
				at, ok := kv.take("at")
				if !ok || !(at >= 0) || at >= cur.Duration {
					return nil, specErr(lineNo, "event %s needs at= in [0, phase duration %g)", ev.Kind, cur.Duration)
				}
				ev.At = at
				m, ok := kv.take("mult")
				if !ok || !(m > 0) || m > 1e6 {
					return nil, specErr(lineNo, "event %s needs mult= in (0, 1e6]", ev.Kind)
				}
				ev.Mult = m
				if ev.Kind == "flash" {
					w, ok := kv.take("width")
					if !ok || !(w > 0) || ev.At+w > cur.Duration {
						return nil, specErr(lineNo, "event flash needs width= > 0 with at+width ≤ phase duration %g", cur.Duration)
					}
					ev.Width = w
				}
				cur.Events = append(cur.Events, ev)
			case "sine":
				if cur.Sine != nil {
					return nil, specErr(lineNo, "phase %s already has a sine event", cur.Name)
				}
				p, ok := kv.take("period")
				if !ok || !(p > 0) || p > MaxDuration {
					return nil, specErr(lineNo, "event sine needs period= in (0, %g]", float64(MaxDuration))
				}
				ev.Period = p
				d, ok := kv.take("depth")
				if !ok || !(d >= 0) || d > 0.95 {
					return nil, specErr(lineNo, "event sine needs depth= in [0, 0.95]: deeper troughs starve the thinning sampler")
				}
				ev.Depth = d
				cur.Sine = &ev
			default:
				return nil, specErr(lineNo, "unknown event %q (want step, flash, or sine)", ev.Kind)
			}
			if err := kv.empty(); err != nil {
				return nil, err
			}

		default:
			return nil, specErr(lineNo, "unknown directive %q", dir)
		}
	}
	if s.Name == "" {
		return nil, fmt.Errorf("workload: empty spec (no scenario directive)")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// specErr formats a parse error anchored to a spec line.
func specErr(line int, format string, args ...any) error {
	return fmt.Errorf("workload: line %d: %s", line, fmt.Sprintf(format, args...))
}

// kvSet holds one directive's key=value arguments.
type kvSet struct {
	line int
	dir  string
	vals map[string]float64
}

// parseKV parses key=value fields into a set, rejecting malformed pairs
// and duplicates.
func parseKV(line int, dir string, fields []string) (*kvSet, error) {
	kv := &kvSet{line: line, dir: dir, vals: map[string]float64{}}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" {
			return nil, specErr(line, "%s: argument %q is not key=value", dir, f)
		}
		if _, dup := kv.vals[k]; dup {
			return nil, specErr(line, "%s: duplicate key %q", dir, k)
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, specErr(line, "%s: %s=%q is not a number", dir, k, v)
		}
		kv.vals[k] = x
	}
	return kv, nil
}

// take removes and returns a key's value.
func (kv *kvSet) take(key string) (float64, bool) {
	v, ok := kv.vals[key]
	delete(kv.vals, key)
	return v, ok
}

// empty errors on any leftover (unknown) keys.
func (kv *kvSet) empty() error {
	if len(kv.vals) == 0 {
		return nil
	}
	keys := make([]string, 0, len(kv.vals))
	for k := range kv.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return specErr(kv.line, "%s: unknown key %q", kv.dir, keys[0])
}
