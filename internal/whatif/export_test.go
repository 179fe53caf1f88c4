package whatif

// BuiltRelevance reports the optimizer's interned queries, how many of them
// have their relevance bitmap built, and how many tables have their column
// masks built — the work interning defers to first need. It reads without
// synchronization: call it only while no other goroutine uses o.
func BuiltRelevance(o *Optimizer) (interned, queries, tables int) {
	o.infos.Range(func(_, v any) bool {
		interned++
		if v.(*queryInfo).rel != nil {
			queries++
		}
		return true
	})
	for _, tc := range o.tables {
		if tc.lead != nil {
			tables++
		}
	}
	return interned, queries, tables
}
