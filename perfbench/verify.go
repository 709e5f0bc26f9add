package main

import (
	"fmt"

	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/monitor"
)

// verify replays the run's input (the warm-up round and every measured
// window, regenerated from the seed) through an in-process shadow and
// checks the served system against it:
//   - the served state equals the shadow's (merged across nodes when
//     routed), and in replicated-json the follower equals the primary;
//   - the acked alert multiset equals the shadow's;
//   - every node's /metrics ledger balances and counts exactly the
//     records sent to it;
//   - every read was answered and the summary counts every tracked drive.
func verify(res *result, st *stack, ff *fixedFleet, tm trained, ph *phase, per, warmRecords int, served alertDigest) {
	shadow, err := loadgen.NewShadow(tm.models, tm.norm, fleet.Config{Monitor: monitor.Config{}})
	if err != nil {
		res.addCheck("shadow", err)
		return
	}
	perNode := map[string]int64{}
	apply := func(q [][]*loadgen.Batch) error {
		for _, bs := range q {
			for _, b := range bs {
				if st.routeMap != nil {
					for _, o := range b.Obs {
						perNode[st.routeMap.OwnerID(o.Serial)]++
					}
				}
				if err := shadow.Apply(b.Obs); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err = apply(ff.warmup(false))
	for w := 0; w < ph.windows && err == nil; w++ {
		err = apply(ff.window(w, per, false))
	}
	if err != nil {
		res.addCheck("shadow", err)
		return
	}
	res.addCheck("records-sent", func() error {
		if sent := warmRecords + ph.records; sent != shadow.Ingested() {
			return fmt.Errorf("driver acked %d records, input holds %d", sent, shadow.Ingested())
		}
		return nil
	}())

	var want alertDigest
	want.add(shadow.AlertKeys())
	res.Counts["alerts"] = want.n
	res.addCheck("alerts-match-shadow", func() error {
		if want != served {
			return fmt.Errorf("served %d alerts (digest %016x), shadow %d (digest %016x)", served.n, served.sum, want.n, want.sum)
		}
		return nil
	}())

	shadowState := shadow.State()
	var servedState *fleet.State
	if st.routeMap != nil {
		var parts []*fleet.State
		for _, n := range st.nodes {
			parts = append(parts, loadgen.CanonicalState(n.store))
		}
		servedState, err = loadgen.MergeStates(parts...)
	} else {
		servedState = loadgen.CanonicalState(st.nodes[0].store)
	}
	if err == nil {
		err = loadgen.CompareStates("shadow", "served", shadowState, servedState)
	}
	res.addCheck("state-matches-shadow", err)
	res.Counts["drives"] = len(servedState.Drives)
	if st.follower != nil {
		res.addCheck("follower-matches-primary", loadgen.CompareStates("primary", "follower",
			servedState, loadgen.CanonicalState(st.follower.store)))
	}

	for _, n := range st.nodes {
		want := int64(shadow.Ingested())
		if st.routeMap != nil {
			want = perNode[n.id]
		}
		_, _, _, err := loadgen.MetricsInvariant(n.url, want)
		res.addCheck("metrics-ledger-"+n.id, err)
	}

	res.addCheck("reads-answered", func() error {
		if len(ph.badReads) > 0 {
			return fmt.Errorf("%d reads failed: %v", len(ph.badReads), ph.badReads)
		}
		if tracked := shadow.Store().Tracked(); ph.lastSummary != tracked {
			return fmt.Errorf("fleet summary counts %d drives, the shadow tracks %d", ph.lastSummary, tracked)
		}
		return nil
	}())
}
