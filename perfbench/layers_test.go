package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"decorr/internal/engine"
)

// The staged pipeline — the packages' public entry points called in
// Auto's order — reproduces Engine.Query's rows and Stats exactly, on the
// five figures and on every served-mix statement kind.
func TestStagedPipelineEqualsEngineQuery(t *testing.T) {
	b := &bench{metrics: map[string]metric{}}
	a := &analyticDBs{db: genTPCD()}
	var err error
	if a.db7, err = genTPCDNoIndex(); err != nil {
		t.Fatal(err)
	}
	a.eng, a.eng7 = engine.New(a.db), engine.New(a.db7)
	a.eng.EnablePlanCache(planCacheSize)
	a.eng7.EnablePlanCache(planCacheSize)
	var specs []stmtSpec
	for i, f := range figures {
		specs = append(specs, stmtSpec{name: f.name, sql: f.sql, eng: a.engine(i)})
	}
	for _, o := range pickKinds(mixOps(rand.New(rand.NewSource(1)), 300), 2, opPoint, opQ1Param, opAdhocQ1, opAdhocQ3) {
		specs = append(specs, stmtSpec{name: o.kind.String(), sql: o.sql, params: toValues(o.params), eng: a.eng})
	}
	for _, s := range specs {
		for i := 0; i < 2; i++ { // the second round runs from the plan cache
			if err := b.stagedCheck(newProbe(nil, 0, 0), s); err != nil {
				t.Errorf("%s: %v", s.name, err)
			}
		}
	}
	if b.failed.Load() != 0 {
		t.Errorf("%d staged runs failed", b.failed.Load())
	}
}

// BENCHMARK.json lists exactly the metrics the program reports, in the
// same order and with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
