package whatif

import (
	"encoding/json"
	"fmt"
	"strings"

	"indextune/internal/iset"
	"indextune/internal/workload"
)

// Plan is the structured query plan the optimizer chose for one query under
// a configuration: one operator per table reference, in pipeline order.
// Plans serialize to JSON for tooling.
type Plan struct {
	QueryID    string         `json:"query"`
	TotalCost  float64        `json:"total_cost"`
	OutputRows float64        `json:"output_rows"`
	Operators  []PlanOperator `json:"operators"`
}

// PlanOperator describes how one table reference is accessed and joined
// into the pipeline.
type PlanOperator struct {
	Ref         int     `json:"ref"`
	Table       string  `json:"table"`
	Access      string  `json:"access"`          // heap-scan | index <id> | inl-probe <id>
	Join        string  `json:"join,omitempty"`  // "", hash, index-nested-loop, standalone
	IndexOrd    int     `json:"index,omitempty"` // candidate ordinal used, -1 for none
	Cost        float64 `json:"cost"`
	RowsOut     float64 `json:"rows_out"`
	Ordered     bool    `json:"ordered,omitempty"`
	JoinCost    float64 `json:"join_cost,omitempty"`
	PipelinePos int     `json:"pos"`
}

// Plan returns the structured plan for q under cfg. It performs no budget
// accounting. The plan is read off the same plan-space evaluation every
// cost comes from: evalSpace reports which alternative won each operator,
// and the descriptive fields (access path names, order delivery) are
// derived from the winning ordinals.
func (o *Optimizer) Plan(q *workload.Query, cfg iset.Set) *Plan {
	p := &Plan{}
	ps := o.peekSpace(q, o.info(q), cfg)
	if ps.empty {
		return p
	}
	p.QueryID = q.ID
	win := make([]choice, len(ps.acc)+len(ps.steps))
	p.TotalCost = o.evalSpace(ps, cfg, make([]float64, len(ps.acc)), win)
	p.OutputRows = ps.finalRows
	p.op(o, q, ps, win, ps.seed, -1, "", 0)
	for si := range ps.steps {
		st := &ps.steps[si]
		join := win[len(ps.acc)+si]
		kind, probe := "hash", -1
		switch {
		case st.standalone:
			kind = "standalone"
		case join.ord >= 0:
			kind, probe = "index-nested-loop", join.ord
		}
		p.op(o, q, ps, win, st.ref, probe, kind, join.cost)
	}
	return p
}

// op appends the operator of ref i: its winning access path (replaced in
// the description by the probe index when an index-nested-loop join with
// ordinal probe won), the join kind, and the join cost.
func (p *Plan) op(o *Optimizer, q *workload.Query, ps *planSpace, win []choice, i, probe int, join string, joinCost float64) {
	r := &q.Refs[i]
	access := win[i]
	desc, ord, ordered := "heap-scan", access.ord, false
	if o.DB.Table(r.Table) == nil {
		desc = "missing-table"
	}
	if access.ord >= 0 {
		ix := &o.Candidates[access.ord]
		desc, ordered = "index "+ix.ID(), keyProvidesOrder(ix, r)
	}
	if probe >= 0 {
		desc, ord = "inl-probe "+o.Candidates[probe].ID(), probe
	}
	p.Operators = append(p.Operators, PlanOperator{
		Ref:         i,
		Table:       r.Table,
		Access:      desc,
		Join:        join,
		IndexOrd:    ord,
		Cost:        access.cost,
		RowsOut:     ps.acc[i].rowsOut,
		Ordered:     ordered,
		JoinCost:    joinCost,
		PipelinePos: len(p.Operators),
	})
}

// UsesIndex reports whether any operator of the plan uses the candidate
// with the given ordinal.
func (p *Plan) UsesIndex(ord int) bool {
	for _, op := range p.Operators {
		if op.IndexOrd == ord {
			return true
		}
	}
	return false
}

// MarshalJSON is the default struct encoding; Plan also implements a
// human-readable String.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s cost=%.1f (%.0f rows out)\n", p.QueryID, p.TotalCost, p.OutputRows)
	for _, op := range p.Operators {
		join := op.Join
		if join == "" {
			join = "pipeline-seed"
		}
		fmt.Fprintf(&b, "  %2d. %-24s %-18s via %s (access %.1f",
			op.PipelinePos+1, op.Table, join, op.Access, op.Cost)
		if op.JoinCost > 0 {
			fmt.Fprintf(&b, ", join %.1f", op.JoinCost)
		}
		fmt.Fprintf(&b, ", out %.0f rows)\n", op.RowsOut)
	}
	return b.String()
}

// JSON renders the plan as indented JSON.
func (p *Plan) JSON() (string, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", fmt.Errorf("whatif: encoding plan: %w", err)
	}
	return string(out), nil
}
