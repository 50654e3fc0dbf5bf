package parboil

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTable1DerivedColumns is the central calibration test: our occupancy,
// SRAM-utilization and context-save-time calculators must reproduce the
// published derived columns of Table 1 for all 24 kernels.
func TestTable1DerivedColumns(t *testing.T) {
	cfg := gpu.DefaultConfig()
	for _, row := range Table1() {
		row := row
		t.Run(row.App+"/"+row.Kernel, func(t *testing.T) {
			spec := trace.KernelSpec{
				Name:           row.Kernel,
				NumTBs:         row.NumTBs,
				TBTime:         sim.Microseconds(row.TimePerTBUs),
				RegsPerTB:      row.RegsPerTB,
				SharedMemPerTB: row.SharedMemB,
				ThreadsPerTB:   row.ThreadsPerTB,
			}
			occ, err := cfg.Occupancy(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if occ != row.WantTBsPerSM {
				t.Errorf("TBs/SM = %d, published %d", occ, row.WantTBsPerSM)
			}
			util, err := cfg.ResourceUtilization(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := util * 100; math.Abs(got-row.WantResourcePct) > 0.02 {
				t.Errorf("resource utilization = %.2f%%, published %.2f%%", got, row.WantResourcePct)
			}
			save, err := cfg.SaveTime(&spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := save.Microseconds(); math.Abs(got-row.WantSaveUs) > 0.011 {
				t.Errorf("save time = %.3f us, published %.2f us", got, row.WantSaveUs)
			}
		})
	}
}

// TestTable1AvgTimeConsistency verifies the identity that holds for every
// row of the published table: AvgTime = NumTBs * TimePerTB / TBsPerSM
// (see DESIGN.md §3 on the single-SM normalization).
func TestTable1AvgTimeConsistency(t *testing.T) {
	for _, row := range Table1() {
		derived := float64(row.NumTBs) * row.TimePerTBUs / float64(row.WantTBsPerSM)
		// The identity holds to within the table's printed precision
		// (Time/TB has two decimals, so short kernels round to ~2%).
		if rel := math.Abs(derived-row.AvgTimeUs) / row.AvgTimeUs; rel > 0.025 {
			t.Errorf("%s/%s: NumTBs*TimePerTB/TBsPerSM = %.2f, AvgTime = %.2f (%.1f%% off)",
				row.App, row.Kernel, derived, row.AvgTimeUs, rel*100)
		}
	}
}

func TestSuiteHasTenValidApps(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d apps, want 10 (Parboil minus BFS)", len(suite))
	}
	seen := map[string]bool{}
	for _, app := range suite {
		if err := app.Validate(); err != nil {
			t.Errorf("app %s invalid: %v", app.Name, err)
		}
		if seen[app.Name] {
			t.Errorf("duplicate app %s", app.Name)
		}
		seen[app.Name] = true
		if app.Class1 == trace.ClassUnknown || app.Class2 == trace.ClassUnknown {
			t.Errorf("app %s missing class assignments", app.Name)
		}
	}
	if seen["bfs"] {
		t.Error("BFS must be excluded (paper §4.1)")
	}
}

func TestLaunchCountsMatchTable1(t *testing.T) {
	for _, name := range Names() {
		app, err := App(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := app.LaunchCounts()
		for i := range app.Kernels {
			k := &app.Kernels[i]
			want := 0
			for _, row := range Table1() {
				if row.App == name && row.Kernel == k.Name {
					want = row.Launches
				}
			}
			if counts[i] != want {
				t.Errorf("%s/%s: %d launches in trace, Table 1 says %d",
					name, k.Name, counts[i], want)
			}
		}
	}
}

func TestAppUnknownName(t *testing.T) {
	if _, err := App("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSuiteReturnsFreshCopies(t *testing.T) {
	a := Suite()
	b := Suite()
	a[0].Kernels[0].NumTBs = 1
	if b[0].Kernels[0].NumTBs == 1 {
		t.Fatal("Suite shares storage across calls")
	}
}

func TestKernelStatsMatchTable(t *testing.T) {
	for _, row := range Table1() {
		app, err := App(row.App)
		if err != nil {
			t.Fatal(err)
		}
		var found *trace.KernelSpec
		for i := range app.Kernels {
			if app.Kernels[i].Name == row.Kernel {
				found = &app.Kernels[i]
			}
		}
		if found == nil {
			t.Errorf("%s missing kernel %s", row.App, row.Kernel)
			continue
		}
		if found.NumTBs != row.NumTBs {
			t.Errorf("%s/%s NumTBs = %d, want %d", row.App, row.Kernel, found.NumTBs, row.NumTBs)
		}
		if found.TBTime != sim.Microseconds(row.TimePerTBUs) {
			t.Errorf("%s/%s TBTime = %v, want %v us", row.App, row.Kernel, found.TBTime, row.TimePerTBUs)
		}
		if found.RegsPerTB != row.RegsPerTB || found.SharedMemPerTB != row.SharedMemB {
			t.Errorf("%s/%s resource stats mismatch", row.App, row.Kernel)
		}
	}
}

func TestClassAssignments(t *testing.T) {
	// Spot-check the class table against Table 1.
	cases := []struct {
		app            string
		class1, class2 trace.Class
	}{
		{"lbm", trace.ClassMedium, trace.ClassLong},
		{"spmv", trace.ClassShort, trace.ClassShort},
		{"tpacf", trace.ClassLong, trace.ClassMedium},
		{"sad", trace.ClassLong, trace.ClassLong},
		{"mri-q", trace.ClassMedium, trace.ClassShort},
	}
	for _, c := range cases {
		app, err := App(c.app)
		if err != nil {
			t.Fatal(err)
		}
		if app.Class1 != c.class1 || app.Class2 != c.class2 {
			t.Errorf("%s classes = %v/%v, want %v/%v", c.app, app.Class1, app.Class2, c.class1, c.class2)
		}
	}
}

func TestGPUTimeOrderingRoughlyMatchesClasses(t *testing.T) {
	// Class-2 LONG apps should have more total GPU work than SHORT apps.
	gpuTime := func(name string) float64 {
		app, _ := App(name)
		total := 0.0
		counts := app.LaunchCounts()
		cfg := gpu.DefaultConfig()
		for i := range app.Kernels {
			k := &app.Kernels[i]
			occ, err := cfg.Occupancy(k)
			if err != nil {
				t.Fatal(err)
			}
			perLaunch := float64(k.NumTBs) * k.TBTime.Microseconds() / float64(occ*cfg.NumSMs)
			total += perLaunch * float64(counts[i])
		}
		return total
	}
	long := []string{"lbm", "stencil", "mri-gridding"}
	short := []string{"spmv", "mri-q", "sgemm"}
	for _, l := range long {
		for _, s := range short {
			if gpuTime(l) <= gpuTime(s) {
				t.Errorf("LONG app %s has less GPU time than SHORT app %s", l, s)
			}
		}
	}
}

// TestScaledLBMIsOneBurstPerGap pins the fleet shape of lbm: scaled by 1<<20
// it keeps one launch, and the 99 CPU segments whose launches are dropped
// fold into one 99 ns burst instead of 99 phases of 1 ns.
func TestScaledLBMIsOneBurstPerGap(t *testing.T) {
	app, err := App("lbm")
	if err != nil {
		t.Fatal(err)
	}
	got := app.Scale(1 << 20).Ops
	want := []trace.Op{
		{Kind: trace.OpH2D, Bytes: 12},
		{Kind: trace.OpCPU, Dur: 1},
		{Kind: trace.OpLaunch},
		{Kind: trace.OpCPU, Dur: 99},
		{Kind: trace.OpD2H, Bytes: 12},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lbm.Scale(1<<20) ops = %v, want %v", got, want)
	}
}
