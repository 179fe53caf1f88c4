package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"indextune/internal/schema"
)

// JSON wire format for databases and workloads, so custom workloads can be
// defined in files and loaded by the tools (cmd/tune -file, workloadgen
// -json). The format is intentionally flat and stable.

type jsonWorkload struct {
	Name     string      `json:"name"`
	Database jsonDB      `json:"database"`
	Queries  []jsonQuery `json:"queries"`
}

type jsonDB struct {
	Name   string      `json:"name"`
	Tables []jsonTable `json:"tables"`
}

type jsonTable struct {
	Name    string       `json:"name"`
	Rows    int64        `json:"rows"`
	Columns []jsonColumn `json:"columns"`
}

type jsonColumn struct {
	Name  string `json:"name"`
	NDV   int64  `json:"ndv"`
	Width int    `json:"width"`
}

type jsonQuery struct {
	ID     string     `json:"id"`
	Weight float64    `json:"weight,omitempty"`
	SQL    string     `json:"sql,omitempty"`
	Refs   []jsonRef  `json:"refs"`
	Joins  []jsonJoin `json:"joins,omitempty"`
}

type jsonRef struct {
	Table    string     `json:"table"`
	Filters  []jsonPred `json:"filters,omitempty"`
	JoinCols []string   `json:"join_cols,omitempty"`
	Need     []string   `json:"need,omitempty"`
	SortCols []string   `json:"sort_cols,omitempty"`
}

type jsonPred struct {
	Column      string  `json:"column"`
	Op          string  `json:"op"` // "eq" or "range"
	Selectivity float64 `json:"selectivity"`
}

type jsonJoin struct {
	LeftRef  int    `json:"left_ref"`
	LeftCol  string `json:"left_col"`
	RightRef int    `json:"right_ref"`
	RightCol string `json:"right_col"`
}

// WriteJSON serializes the workload (schema and queries) to w.
func (wl *Workload) WriteJSON(w io.Writer) error {
	out := jsonWorkload{Name: wl.Name, Database: jsonDB{Name: wl.DB.Name}}
	for _, t := range wl.DB.Tables() {
		jt := jsonTable{Name: t.Name, Rows: t.Rows}
		for _, c := range t.Columns {
			jt.Columns = append(jt.Columns, jsonColumn{Name: c.Name, NDV: c.NDV, Width: c.Width})
		}
		out.Database.Tables = append(out.Database.Tables, jt)
	}
	for _, q := range wl.Queries {
		jq := jsonQuery{ID: q.ID, Weight: q.Weight, SQL: q.SQL}
		for ri := range q.Refs {
			r := &q.Refs[ri]
			jr := jsonRef{Table: r.Table, JoinCols: r.JoinCols, Need: r.Need, SortCols: r.SortCols}
			for _, p := range r.Filters {
				jr.Filters = append(jr.Filters, jsonPred{Column: p.Column, Op: p.Op.String(), Selectivity: p.Selectivity})
			}
			jq.Refs = append(jq.Refs, jr)
		}
		for _, j := range q.Joins {
			jq.Joins = append(jq.Joins, jsonJoin{LeftRef: j.LeftRef, LeftCol: j.LeftCol, RightRef: j.RightRef, RightCol: j.RightCol})
		}
		out.Queries = append(out.Queries, jq)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("workload: encoding json: %w", err)
	}
	return nil
}

// ReadJSON deserializes a workload written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Workload, error) {
	var in jsonWorkload
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decoding json: %w", err)
	}
	db := schema.NewDatabase(in.Database.Name)
	for _, jt := range in.Database.Tables {
		// AddTable replaces a table of the same name; reject the duplicate
		// before it silently discards the first definition.
		if db.Table(jt.Name) != nil {
			return nil, fmt.Errorf("workload: database %s declares table %s twice", in.Database.Name, jt.Name)
		}
		cols := make([]schema.Column, 0, len(jt.Columns))
		for _, c := range jt.Columns {
			cols = append(cols, schema.Column{Name: c.Name, NDV: c.NDV, Width: c.Width})
		}
		db.AddTable(schema.NewTable(jt.Name, jt.Rows, cols...))
	}
	wl := &Workload{Name: in.Name, DB: db}
	for _, jq := range in.Queries {
		q := &Query{ID: jq.ID, Weight: jq.Weight, SQL: jq.SQL}
		for _, jr := range jq.Refs {
			r := TableRef{Table: jr.Table, JoinCols: jr.JoinCols, Need: jr.Need, SortCols: jr.SortCols}
			for _, p := range jr.Filters {
				op := OpEquality
				switch p.Op {
				case "eq":
					op = OpEquality
				case "range":
					op = OpRange
				default:
					return nil, fmt.Errorf("workload: query %s: unknown predicate op %q", jq.ID, p.Op)
				}
				r.Filters = append(r.Filters, Predicate{Column: p.Column, Op: op, Selectivity: p.Selectivity})
			}
			q.Refs = append(q.Refs, r)
		}
		for _, j := range jq.Joins {
			q.Joins = append(q.Joins, JoinPred{LeftRef: j.LeftRef, LeftCol: j.LeftCol, RightRef: j.RightRef, RightCol: j.RightCol})
		}
		wl.Queries = append(wl.Queries, q)
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return wl, nil
}
