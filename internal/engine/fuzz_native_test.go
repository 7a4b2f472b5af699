package engine

import (
	"fmt"
	"math"
	"testing"

	"taco/internal/formula"
	"taco/internal/ref"
)

// FuzzRecalcParallel: for any parseable formula dropped into a populated
// sheet, the parallel wavefront drain — in one RecalculateAll and in small
// RecalculateN budgets that split levels (and the pattern runs in them)
// across calls — must produce bit-identical values to the serial AST drain.
// The sheet carries filled-down FR columns (running SUM/AVERAGE/MIN/MAX/
// COUNT/COUNTA) and an FF column over an operand column salted with text,
// blanks, errors, -0 and ±Inf, so the run drain's fold memo is held to the
// per-cell folds on every kind of operand. Sheets where a fuzzed formula
// closes a reference cycle are exempted from the value comparison (the
// serial resolver's cycle results depend on drain order, which is exactly
// the nondeterminism the wavefront's leveling-time detection removes), but
// still executed: panics, races, and non-converging drains fail either way.
func FuzzRecalcParallel(f *testing.F) {
	seeds := []string{
		"=SUM(A1:A40)+B3",
		"=IF(A2>5,SUM(B1:B20),MAX(A1:A10))",
		"=VLOOKUP(A3,A1:B40,2)",
		"=C1*2",
		"=AVERAGE(C1:C30)&COUNTIF(A1:A40,\">3\")",
		"=IFERROR(1/A5,99)",
		"=E5+1", // self-reference once placed at E5
		"=SUM(J1:J40)-MAX(L1:M40)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		node, err := formula.Parse(src)
		if err != nil {
			return
		}
		// Bound the referenced area: evaluation cost is linear in it for
		// some builtins, and fuzzing wants many small executions.
		area := 0
		for _, r := range formula.Refs(node) {
			area += r.At.Size()
			if area > 1<<20 {
				return
			}
		}
		// The FF range's height and the drain budget vary with the input.
		fixedRows := 1 + len(src)%40
		budget := 3 + len(src)%13
		build := func(parallelism, budget int) *Engine {
			e := New(nil)
			e.SetRecalcParallelism(parallelism)
			drain := func() {
				if budget <= 0 {
					e.RecalculateAll()
					return
				}
				for e.Pending() > 0 && e.RecalculateN(budget) > 0 {
				}
			}
			for row := 1; row <= 40; row++ {
				if v, ok := fuzzOperand(row); ok {
					e.SetValue(ref.Ref{Col: 1, Row: row}, v)
				}
				switch row % 4 {
				case 2:
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Str("t"))
				case 3:
					e.SetValue(ref.Ref{Col: 2, Row: row}, formula.Num(float64(row*row)))
				}
			}
			// A formula tier over the data plus padding wide enough to push
			// every drain over the wavefront threshold.
			for row := 1; row <= 40; row++ {
				mustFormula(t, e, fmt.Sprintf("C%d", row), fmt.Sprintf("SUM(A$1:B$%d)+%d", row, row))
				for i, fn := range []string{"SUM", "AVERAGE", "MIN", "MAX", "COUNT", "COUNTA"} {
					mustFormula(t, e, ref.FormatA1(ref.Ref{Col: 10 + i, Row: row}), fmt.Sprintf("%s($A$1:A%d)", fn, row))
				}
				mustFormula(t, e, fmt.Sprintf("P%d", row), fmt.Sprintf("SUM($A$1:$A$%d)*B%d", fixedRows, row))
			}
			for i := 1; i <= minParallelDirty; i++ {
				mustFormula(t, e, fmt.Sprintf("H%d", i), fmt.Sprintf("$A$1+%d", i))
			}
			// The fuzzed formula, twice, so it can also feed itself.
			if _, err := e.SetFormula(ref.MustCell("E5"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			if _, err := e.SetFormula(ref.MustCell("G20"), src); err != nil {
				t.Fatalf("parsed but rejected by SetFormula: %v", err)
			}
			mustFormula(t, e, "F1", "E5+G20")
			drain()
			// Re-dirty through the shared input and drain again: the second
			// drain exercises invalidate-driven dirty sets, not load-time ones.
			e.SetValue(ref.MustCell("A1"), formula.Num(17))
			drain()
			return e
		}
		serial := build(1, 0)
		drained := map[string]*Engine{
			"parallel":                       build(4, 0),
			fmt.Sprintf("budget %d", budget): build(4, budget),
		}
		for name, e := range drained {
			if p := e.Pending(); p != 0 {
				t.Fatalf("%s drain left %d pending", name, p)
			}
		}
		cycles := false
		for _, e := range append([]*Engine{serial}, drained["parallel"]) {
			e.store.eachColumnMajor(func(_ ref.Ref, c *cell) error {
				if c.value.Err == "#CYCLE!" {
					cycles = true
				}
				return nil
			})
		}
		if cycles {
			return
		}
		serial.store.eachColumnMajor(func(at ref.Ref, c *cell) error {
			for name, e := range drained {
				if pv := e.Value(at); !sameBits(pv, c.value) {
					t.Errorf("%v: serial=%v %s=%v (formula %q)", at, c.value, name, pv, src)
				}
			}
			return nil
		})
	})
}

// fuzzOperand is the operand column's value at row: numbers with gaps, plus
// one each of the kinds a fold must treat exactly — text (numeric and not),
// a boolean, a stored blank, -0, an error, and both infinities, placed late
// enough that the running folds above them stay finite for most rows.
func fuzzOperand(row int) (formula.Value, bool) {
	switch row {
	case 6:
		return formula.Str("t"), true
	case 9:
		return formula.Num(math.Copysign(0, -1)), true
	case 10:
		return formula.Str("12.5"), true
	case 14:
		return formula.Boolean(true), true
	case 18:
		return formula.Empty(), true
	case 26:
		return formula.Num(math.Inf(1)), true
	case 34:
		return formula.Errorf("#N/A"), true
	case 38:
		return formula.Num(math.Inf(-1)), true
	}
	switch row % 4 {
	case 1:
		return formula.Num(float64(row) / 2), true
	case 3:
		return formula.Num(-float64(row)), true
	}
	return formula.Value{}, false // a gap: the cell is not stored
}

// sameBits reports whether two values are identical down to the float bits,
// so -0 differs from 0 and a NaN matches only the same NaN.
func sameBits(a, b formula.Value) bool {
	if a.Kind == formula.KindNumber && b.Kind == formula.KindNumber {
		return math.Float64bits(a.Num) == math.Float64bits(b.Num)
	}
	return a == b
}
