package main

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
)

// serverView renders an engine's cells the way GET /sessions/{id}/cells does.
func serverView(eng *engine.Engine, rng ref.Range) []server.CellOut {
	var out []server.CellOut
	eng.ScanRange(rng, func(at ref.Ref, v formula.Value, src string, clean bool) bool {
		if v.Kind == formula.KindEmpty && src == "" && clean {
			return true
		}
		c := server.CellOut{Cell: ref.FormatA1(at), Formula: src, Pending: !clean}
		switch v.Kind {
		case formula.KindNumber:
			c.Kind, c.Num = "number", v.Num
		case formula.KindString:
			c.Kind, c.Str = "string", v.Str
		case formula.KindBool:
			c.Kind, c.Bool = "bool", v.Bool
		case formula.KindError:
			c.Kind, c.Error = "error", v.Err
		default:
			c.Kind = "empty"
		}
		out = append(out, c)
		return true
	})
	return out
}

func TestCheckerCatchesAlteredReferenceValue(t *testing.T) {
	sh, err := workload.BuildScenario("financial", 40, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	bounds := sheetBounds(sh)
	served, err := engine.LoadBulk(sh)
	if err != nil {
		t.Fatal(err)
	}
	got := serverView(served, bounds)

	ref0, err := buildReference(sh)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := diffCells(ref0.eng, bounds, got); len(diffs) != 0 {
		t.Fatalf("unaltered reference: %d diffs, first %s", len(diffs), diffs[0])
	}

	// One altered input value in the reference: the checker must notice.
	altered := finalSheet(sh, []workload.Edit{{Kind: workload.EditValue, At: ref.MustRange("B7").Head, Value: 12345}})
	ref1, err := buildReference(altered)
	if err != nil {
		t.Fatal(err)
	}
	diffs := diffCells(ref1.eng, bounds, got)
	if len(diffs) == 0 {
		t.Fatal("checker accepted a read-back that differs from the altered reference")
	}
	if !strings.Contains(strings.Join(diffs, "\n"), "B7") {
		t.Fatalf("diffs do not name the altered cell: %v", diffs)
	}
}

func TestCheckerCatchesMissingAndPendingCells(t *testing.T) {
	sh, err := workload.BuildScenario("inventory", 20, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	bounds := sheetBounds(sh)
	r, err := buildReference(sh)
	if err != nil {
		t.Fatal(err)
	}
	got := serverView(r.eng, bounds)
	if diffs := diffCells(r.eng, bounds, got[1:]); len(diffs) != 1 {
		t.Fatalf("dropped cell: want 1 diff, got %v", diffs)
	}
	got[3].Pending = true
	if diffs := diffCells(r.eng, bounds, got); len(diffs) != 1 || !strings.Contains(diffs[0], "pending") {
		t.Fatalf("pending cell: want 1 pending diff, got %v", diffs)
	}
}

func TestSameCellsIgnoresRectangleSplits(t *testing.T) {
	rs := func(ss ...string) []ref.Range {
		var out []ref.Range
		for _, s := range ss {
			out = append(out, ref.MustRange(s))
		}
		return out
	}
	if !sameCells(rs("A1:B4"), rs("A1:A4", "B1:B2", "B3:B4")) {
		t.Error("equal cell sets split differently compared unequal")
	}
	if sameCells(rs("A1:B4"), rs("A1:A4", "B1:B3")) {
		t.Error("a missing cell compared equal")
	}
	if sameCells(rs("C5"), rs("C6")) {
		t.Error("different cells compared equal")
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, w := range []string{"trace", "recalc", "tenants"} {
		a, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.sessions) != len(b.sessions) || len(a.schedule) != len(b.schedule) {
			t.Fatalf("%s: plan sizes differ", w)
		}
		// The .xlsx bytes may differ in shared-formula numbering (the writer
		// numbers runs in map order); the cells they carry may not.
		for i := range a.sessions {
			if !reflect.DeepEqual(a.sessions[i].sheet.Cells, b.sessions[i].sheet.Cells) {
				t.Fatalf("%s: session %d differs between plans of one seed", w, i)
			}
		}
		for i := range a.schedule {
			x, y := a.schedule[i], b.schedule[i]
			if x.kind != y.kind || x.rng != y.rng || x.sess != y.sess || x.due != y.due || !reflect.DeepEqual(x.edits, y.edits) {
				t.Fatalf("%s: scheduled op %d differs between plans of one seed", w, i)
			}
		}
		if !a.openLoop {
			for k := 0; k < 50; k++ {
				x, y := a.gens[0].next(), b.gens[0].next()
				if x.kind != y.kind || x.rng != y.rng || x.sess != y.sess || !reflect.DeepEqual(x.edits, y.edits) {
					t.Fatalf("%s: op %d differs between plans of one seed", w, k)
				}
			}
		}
	}
}

// The growth-rate bound is what keeps recalc's planning sheet finite: with
// EditStreamMix's raw values the budget chain overflows to +Inf, which the
// server cannot encode.
func TestPlanningGrowthEditsStayFinite(t *testing.T) {
	p, err := newPlan("recalc", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.sessions {
		if s.sheet.Name != "planning" {
			continue
		}
		growth := 0
		for _, e := range s.edits {
			if e.Kind == workload.EditValue && e.At.Row == 1 {
				growth++
				if e.Value < 0.95 || e.Value >= 1.15 {
					t.Fatalf("growth edit %v writes %v", e.At, e.Value)
				}
			}
		}
		if growth == 0 {
			t.Fatal("no growth-rate edits in the planning stream")
		}
		r, err := buildReference(finalSheet(s.sheet, s.edits))
		if err != nil {
			t.Fatal(err)
		}
		r.eng.ScanRange(sheetBounds(s.sheet), func(at ref.Ref, v formula.Value, _ string, _ bool) bool {
			if v.Kind == formula.KindNumber && (math.IsInf(v.Num, 0) || math.IsNaN(v.Num)) {
				t.Fatalf("%s evaluates to %v", ref.FormatA1(at), v.Num)
			}
			return true
		})
		return
	}
	t.Fatal("recalc plan has no planning sheet")
}
