package profile_test

import (
	"encoding/csv"
	"strconv"
	"strings"
	"sync"
	"testing"

	"profileme/internal/experiments"
)

// The §5.2 edge runs are the edges entry of experiments.All: a loop around
// a 1-in-8 diamond and a main that calls alpha and beta 2,000 times each,
// both on paired samples fed to an EdgeProfile at the nominal interval.
// These tests hold the entry's CSV rows to the programs' ground truth.

// edgeRow is one edge of the entry's CSV.
type edgeRow struct {
	executions, k, estimate float64
}

// edgeRows runs the edges entry once and returns its rows by edge name.
var edgeRows = sync.OnceValues(func() (map[string]edgeRow, error) {
	var run func(bool) (experiments.Result, error)
	for _, e := range experiments.All {
		if e.Name == "edges" {
			run = e.Run
		}
	}
	res, err := run(true)
	if err != nil {
		return nil, err
	}
	recs, err := csv.NewReader(strings.NewReader(res.CSV())).ReadAll()
	if err != nil {
		return nil, err
	}
	rows := map[string]edgeRow{}
	for _, rec := range recs[1:] { // edge,executions,k,estimate
		var v [3]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(rec[i+1], 64); err != nil {
				return nil, err
			}
		}
		rows[rec[0]] = edgeRow{v[0], v[1], v[2]}
	}
	return rows, nil
})

func TestEdgeProfileAgainstGroundTruth(t *testing.T) {
	rows, err := edgeRows()
	if err != nil {
		t.Fatal(err)
	}
	// The estimated branch bias must match the true taken fraction.
	taken, fall := rows["beq->rare"], rows["beq->fall-through"]
	if taken.k+fall.k == 0 {
		t.Fatal("branch never observed at distance 1")
	}
	if frac := taken.k / (taken.k + fall.k); frac < 0.04 || frac > 0.25 {
		t.Fatalf("estimated taken fraction %.3f, true ~0.125", frac)
	}
	// The loop back-edge estimate should be near the true execution count.
	back := rows["bne->loop"]
	if back.estimate < back.executions/3 || back.estimate > back.executions*3 {
		t.Fatalf("back-edge estimate %.0f vs true %.0f", back.estimate, back.executions)
	}
}

func TestCallGraphFromEdges(t *testing.T) {
	rows, err := edgeRows()
	if err != nil {
		t.Fatal(err)
	}
	// Both callees are invoked exactly once per iteration, so the edge
	// estimates should be within noise of each other and of the true
	// count (2000 each).
	for _, name := range []string{"main->alpha", "main->beta"} {
		ce, ok := rows[name]
		if !ok || ce.k == 0 {
			t.Fatalf("call graph incomplete: no %s observation in %v", name, rows)
		}
		if ce.estimate < 400 || ce.estimate > 8000 {
			t.Fatalf("%s estimate %.0f, true %.0f", name, ce.estimate, ce.executions)
		}
	}
}
