package core

import (
	"cmp"
	"slices"
	"testing"

	"progxe/internal/baseline"
	"progxe/internal/datagen"
	"progxe/internal/mapping"
	"progxe/internal/smj"
)

func TestKDPartitionBalance(t *testing.T) {
	p := smokeProblem(t, 1000, 3, datagen.Correlated, 0.05, 6)
	parts, err := partitionInputKD(p.Left, p.Maps, mapping.Left, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 8 || len(parts) > 16 {
		t.Fatalf("kd produced %d partitions, want ~16", len(parts))
	}
	total := 0
	smallest, largest := 1<<30, 0
	for _, pt := range parts {
		n := pt.len()
		total += n
		if n < smallest {
			smallest = n
		}
		if n > largest {
			largest = n
		}
	}
	if total != p.Left.Len() {
		t.Fatalf("partitions cover %d of %d tuples", total, p.Left.Len())
	}
	// Median splits keep populations within a small factor even on
	// correlated (skewed) data; uniform grids would leave cells empty.
	if largest > smallest*4 {
		t.Fatalf("unbalanced kd partitions: min %d max %d", smallest, largest)
	}
	// Bounding boxes must contain their members.
	for _, pt := range parts {
		for i := range pt.ids {
			if !pt.rect.Contains(pt.row(i)) {
				t.Fatalf("tuple %v outside partition box %v", pt.row(i), pt.rect)
			}
		}
	}
}

func TestKDPartitionDegenerate(t *testing.T) {
	// All tuples identical: a single unsplittable partition.
	p := emptyProblem(t, 10, 1)
	for i := range p.Left.Tuples {
		p.Left.Tuples[i].Vals = []float64{1, 1}
	}
	parts, err := partitionInputKD(p.Left, p.Maps, mapping.Left, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].len() != 10 {
		t.Fatalf("identical tuples must form one partition, got %d", len(parts))
	}
	// Empty input.
	empty := emptyProblem(t, 0, 0)
	parts, err = partitionInputKD(empty.Left, empty.Maps, mapping.Left, 8)
	if err != nil || parts != nil {
		t.Fatalf("empty input: %v, %v", parts, err)
	}
}

// TestKDEngineAgreesWithOracle runs the full engine with kd partitioning
// across the distribution matrix — auto-sized, coarse and deep splits,
// push-through, and the prefetch path — and compares the result set, ids and
// output vectors, with the oracle's.
func TestKDEngineAgreesWithOracle(t *testing.T) {
	byIDs := func(rs []smj.Result) []smj.Result {
		slices.SortFunc(rs, func(a, b smj.Result) int {
			return cmp.Or(cmp.Compare(a.LeftID, b.LeftID), cmp.Compare(a.RightID, b.RightID))
		})
		return rs
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := smokeProblem(t, 150, 3, dist, 0.05, seed)
			oracle, err := baseline.Oracle(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(byIDs(oracle)) == 0 {
				t.Fatalf("%s seed %d: empty skyline, the comparison is vacuous", dist, seed)
			}
			for _, opts := range []Options{
				{Partitioning: PartitionKD},
				{Partitioning: PartitionKD, InputCells: 2},
				{Partitioning: PartitionKD, InputCells: 4},
				{Partitioning: PartitionKD, PushThrough: true},
				{Partitioning: PartitionKD, Workers: 2},
			} {
				got, _ := recordRun(t, p, opts)
				if !sameRuns(byIDs(got), oracle) {
					t.Fatalf("%s seed %d %+v: %d results differ from the oracle's %d", dist, seed, opts, len(got), len(oracle))
				}
			}
		}
	}
}

func TestPartitioningString(t *testing.T) {
	if PartitionGrid.String() != "grid" || PartitionKD.String() != "kd" || Partitioning(9).String() != "unknown" {
		t.Fatal("partitioning names wrong")
	}
}
