package experiments

import (
	"fmt"
	"strings"

	"indextune/internal/core"
)

// spec declares one experiment: the id ByID takes, the name and caption its
// figure prints under, and how its panels are built.
type spec struct {
	id, name, caption string
	build             func(cfg Config) []Panel
}

// specs is the one place an experiment is declared, in paper order: ByID,
// IDs, the CLI's -fig help and the root BenchmarkFigures all read it. The
// ids are DESIGN.md's per-experiment index — "table1", "2", "8" through
// "23" — plus the beyond-the-paper extensions "earlystop" and "policies".
var specs = []spec{
	{"table1", "Table 1", "Summary of database and workload statistics (Table 1)", workloadStats},
	{"2", "Figure 2", "Tuning time split on TPC-DS (greedy, K = 20)", on(tuningTimeSplit, "TPC-DS")},
	{"8", "Figure 8", "End-to-end comparison on TPC-DS with budget-aware Greedy variants", on(vsGreedy, "TPC-DS")},
	{"9", "Figure 9", "End-to-end comparison on Real-D with budget-aware Greedy variants", on(vsGreedy, "Real-D")},
	{"10", "Figure 10", "End-to-end comparison on Real-M with budget-aware Greedy variants", on(vsGreedy, "Real-M")},
	{"11", "Figure 11", "End-to-end comparison on TPC-DS with existing RL approaches", on(vsRL, "TPC-DS")},
	{"12", "Figure 12", "End-to-end comparison on Real-D with existing RL approaches", on(vsRL, "Real-D")},
	{"13", "Figure 13", "End-to-end comparison on Real-M with existing RL approaches", on(vsRL, "Real-M")},
	{"14", "Figure 14", "Convergence of DBA bandits and No DBA (B = 5000)",
		concat(across(convergence(10, 5000), "TPC-DS", "Real-D"), across(convergence(20, 5000), "Real-M"))},
	{"15", "Figure 15", "Comparison vs DTA with and without storage constraint",
		across(dtaVsMCTS(true, false), "TPC-DS", "Real-D", "Real-M")},
	{"16", "Figure 16", "End-to-end comparison on JOB with budget-aware Greedy variants", on(vsGreedy, "JOB")},
	{"17", "Figure 17", "End-to-end comparison on TPC-H with budget-aware Greedy variants", on(vsGreedy, "TPC-H")},
	{"18", "Figure 18", "End-to-end comparison on JOB with existing RL approaches", on(vsRL, "JOB")},
	{"19", "Figure 19", "End-to-end comparison on TPC-H with existing RL approaches", on(vsRL, "TPC-H")},
	// The paper plots JOB without the storage constraint only.
	{"20", "Figure 20", "Comparison vs DTA on JOB and TPC-H",
		concat(across(dtaVsMCTS(false), "JOB"), across(dtaVsMCTS(true, false), "TPC-H"))},
	{"21", "Figure 21", "Convergence of DBA bandits and No DBA on JOB and TPC-H (B = 1000)",
		across(convergence(10, 1000), "JOB", "TPC-H")},
	{"22", "Figure 22", "MCTS policy ablation, fixed-step rollout",
		across(ablation(core.RolloutFixedStep), "JOB", "TPC-H", "TPC-DS", "Real-D", "Real-M")},
	{"23", "Figure 23", "MCTS policy ablation, randomized-step rollout",
		across(ablation(core.RolloutRandomStep), "JOB", "TPC-H", "TPC-DS", "Real-D", "Real-M")},
	{"earlystop", "Extension: early stopping", "Early stopping on derived cost bounds on TPC-H (beyond the paper)",
		on(earlyStopping, "TPC-H")},
	{"policies", "Extension: policy ablation", "Extended MCTS policy ablation (Boltzmann, RAVE, Uniform)",
		across(policyVariants, "TPC-H", "TPC-DS")},
}

// sweep builds one workload's panels on its runner.
type sweep func(r *runner) []Panel

// on builds a single-workload figure from s.
func on(s sweep, wname string) func(Config) []Panel {
	return func(cfg Config) []Panel { return s(newRunner(cfg, wname)) }
}

// across builds s on each workload in turn and titles every panel
// "<workload>, <title>".
func across(s sweep, wnames ...string) func(Config) []Panel {
	return func(cfg Config) []Panel {
		var panels []Panel
		for _, w := range wnames {
			for _, p := range s(newRunner(cfg, w)) {
				p.Title = w + ", " + p.Title
				panels = append(panels, p)
			}
		}
		return panels
	}
}

// concat builds the parts of a figure in order and joins their panels.
func concat(parts ...func(Config) []Panel) func(Config) []Panel {
	return func(cfg Config) []Panel {
		var panels []Panel
		for _, part := range parts {
			panels = append(panels, part(cfg)...)
		}
		return panels
	}
}

// ByID regenerates the identified table or figure; see specs for the ids.
func ByID(cfg Config, id string) (*Figure, error) {
	for _, s := range specs {
		if s.id == id {
			return &Figure{ID: s.name, Caption: s.caption, Panels: s.build(cfg)}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment id %q (ids: %s)", id, strings.Join(IDs(), " "))
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.id
	}
	return ids
}
