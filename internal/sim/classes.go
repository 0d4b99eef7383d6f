package sim

import (
	"fmt"

	"beqos/internal/utility"
	"beqos/internal/workload"
)

// class is one flow class as the simulator scores it (§5's
// heterogeneous-flows extension, dynamically): a flow receiving share b
// performs like util at b/demand.
type class struct {
	util   utility.Function
	demand float64
}

// buildClasses pairs the scenario's classes with their utilities: utils[i]
// when given, else the run-wide util.
func buildClasses(scn []workload.Class, utils []utility.Function, util utility.Function) ([]class, error) {
	if len(utils) > 0 && len(utils) != len(scn) {
		return nil, fmt.Errorf("sim: %d class utilities for a scenario of %d classes", len(utils), len(scn))
	}
	if len(scn) == 0 {
		return nil, nil
	}
	out := make([]class, len(scn))
	for i, c := range scn {
		out[i] = class{util: util, demand: c.Demand}
		if len(utils) > 0 {
			out[i].util = utils[i]
		}
		if out[i].util == nil {
			return nil, fmt.Errorf("sim: class %q has no utility", c.Name)
		}
	}
	return out, nil
}

// classMixture builds the population's expected utility function, used to
// derive the admission threshold kmax(C) exactly as the analytical model's
// utility.Mixture does.
func classMixture(scn []workload.Class, classes []class) (utility.Function, error) {
	comps := make([]utility.Component, len(classes))
	for i, c := range classes {
		comps[i] = utility.Component{Fn: c.util, Weight: scn[i].Weight, Demand: c.demand}
	}
	return utility.NewMixture(comps)
}
