package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func validKernel() KernelSpec {
	return KernelSpec{
		Name: "k", NumTBs: 10, TBTime: sim.Microseconds(5),
		RegsPerTB: 1000, SharedMemPerTB: 0, ThreadsPerTB: 128, Launches: 1,
	}
}

func validApp() *App {
	return &App{
		Name:    "app",
		Kernels: []KernelSpec{validKernel()},
		Ops: []Op{
			{Kind: OpH2D, Bytes: 1024},
			{Kind: OpCPU, Dur: sim.Microseconds(10)},
			{Kind: OpLaunch, Kernel: 0},
			{Kind: OpSync},
			{Kind: OpD2H, Bytes: 512},
		},
		Class1: ClassShort,
		Class2: ClassMedium,
	}
}

func TestKernelSpecValidate(t *testing.T) {
	good := validKernel()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*KernelSpec)
	}{
		{"empty name", func(k *KernelSpec) { k.Name = "" }},
		{"zero TBs", func(k *KernelSpec) { k.NumTBs = 0 }},
		{"zero TB time", func(k *KernelSpec) { k.TBTime = 0 }},
		{"negative regs", func(k *KernelSpec) { k.RegsPerTB = -1 }},
		{"negative smem", func(k *KernelSpec) { k.SharedMemPerTB = -1 }},
		{"zero threads", func(k *KernelSpec) { k.ThreadsPerTB = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := validKernel()
			c.mutate(&k)
			if err := k.Validate(); err == nil {
				t.Errorf("%s not rejected", c.name)
			}
		})
	}
}

func TestAppValidate(t *testing.T) {
	if err := validApp().Validate(); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"no kernels", func(a *App) { a.Kernels = nil }},
		{"no ops", func(a *App) { a.Ops = nil }},
		{"kernel index out of range", func(a *App) { a.Ops[2].Kernel = 5 }},
		{"zero-byte transfer", func(a *App) { a.Ops[0].Bytes = 0 }},
		{"negative cpu", func(a *App) { a.Ops[1].Dur = -1 }},
		{"no launches", func(a *App) {
			a.Ops = []Op{{Kind: OpCPU, Dur: 1}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := validApp()
			c.mutate(a)
			if err := a.Validate(); err == nil {
				t.Errorf("%s not rejected", c.name)
			}
		})
	}
}

func TestLaunchCounts(t *testing.T) {
	a := validApp()
	a.Ops = append(a.Ops, Op{Kind: OpLaunch, Kernel: 0})
	counts := a.LaunchCounts()
	if len(counts) != 1 || counts[0] != 2 {
		t.Fatalf("LaunchCounts = %v, want [2]", counts)
	}
}

func TestTransferAndCPUTotals(t *testing.T) {
	a := validApp()
	h2d, d2h := a.TotalTransferBytes()
	if h2d != 1024 || d2h != 512 {
		t.Fatalf("TotalTransferBytes = %d,%d", h2d, d2h)
	}
	if a.TotalCPUTime() != sim.Microseconds(10) {
		t.Fatalf("TotalCPUTime = %v", a.TotalCPUTime())
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := validApp()
	b := a.Clone()
	b.Kernels[0].NumTBs = 999
	b.Ops[0].Bytes = 999
	if a.Kernels[0].NumTBs == 999 || a.Ops[0].Bytes == 999 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestScalePreservesPerTBStats(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 100
	s := a.Scale(8)
	if s.Kernels[0].NumTBs != 13 {
		t.Errorf("scaled NumTBs = %d, want ceil(100/8)=13", s.Kernels[0].NumTBs)
	}
	if s.Kernels[0].TBTime != a.Kernels[0].TBTime {
		t.Error("Scale changed TBTime")
	}
	if s.Kernels[0].RegsPerTB != a.Kernels[0].RegsPerTB {
		t.Error("Scale changed RegsPerTB")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled app invalid: %v", err)
	}
}

func TestScaleKeepsAtLeastOneLaunch(t *testing.T) {
	a := validApp()
	s := a.Scale(1000)
	if got := s.LaunchCounts()[0]; got != 1 {
		t.Fatalf("scaled launches = %d, want 1", got)
	}
}

func TestScaleDropsLaunchesProportionally(t *testing.T) {
	a := validApp()
	a.Ops = nil
	for i := 0; i < 100; i++ {
		a.Ops = append(a.Ops, Op{Kind: OpLaunch, Kernel: 0})
	}
	s := a.Scale(4)
	if got := s.LaunchCounts()[0]; got != 25 {
		t.Fatalf("scaled launches = %d, want 25", got)
	}
}

func TestScaleFactorOneIsClone(t *testing.T) {
	a := validApp()
	s := a.Scale(1)
	if len(s.Ops) != len(a.Ops) {
		t.Fatal("Scale(1) changed ops")
	}
	s.Ops[0].Bytes = 7777
	if a.Ops[0].Bytes == 7777 {
		t.Fatal("Scale(1) did not copy")
	}
}

// scaleOpsUnfolded is Scale's op rewrite without the CPU folding: launches
// thinned the same way, transfers and CPU segments divided by factor (rounded
// up, zero stays zero), every CPU segment kept where it stands.
func scaleOpsUnfolded(a *App, factor int) []Op {
	f := int64(factor)
	seen := make([]int, len(a.Kernels))
	var out []Op
	for _, op := range a.Ops {
		switch op.Kind {
		case OpLaunch:
			seen[op.Kernel]++
			if (seen[op.Kernel]-1)%factor != 0 {
				continue
			}
		case OpCPU:
			if op.Dur > 0 {
				op.Dur = sim.Time((int64(op.Dur) + f - 1) / f)
			}
		case OpH2D, OpD2H:
			op.Bytes = (op.Bytes + f - 1) / f
		}
		out = append(out, op)
	}
	return out
}

// foldCPU merges each run of adjacent CPU ops into its first op, summing the
// durations.
func foldCPU(ops []Op) []Op {
	var out []Op
	for _, op := range ops {
		if n := len(out); op.Kind == OpCPU && n > 0 && out[n-1].Kind == OpCPU {
			out[n-1].Dur += op.Dur
			continue
		}
		out = append(out, op)
	}
	return out
}

// checkScale scales a valid app and checks the result against the unfolded
// rewrite: it must validate; a factor of at most 1 must leave the ops as
// they are; otherwise the ops must be the unfolded rewrite with adjacent CPU
// ops folded, so the CPU total, the non-CPU ops in order and the per-kernel
// launch counts all match it and no two CPU ops are adjacent.
func checkScale(t *testing.T, in *App, factor int) *App {
	t.Helper()
	out := in.Scale(factor)
	if err := out.Validate(); err != nil {
		t.Fatalf("Scale(%d) produced an invalid app: %v", factor, err)
	}
	if factor <= 1 {
		if !reflect.DeepEqual(out.Ops, in.Ops) {
			t.Fatalf("Scale(%d) rewrote the ops:\n got %v\nwant %v", factor, out.Ops, in.Ops)
		}
		return out
	}
	ref := &App{Kernels: in.Kernels, Ops: scaleOpsUnfolded(in, factor)}
	if got, want := out.TotalCPUTime(), ref.TotalCPUTime(); got != want {
		t.Fatalf("Scale(%d) CPU time = %v, want the per-op rounded sum %v", factor, got, want)
	}
	if got, want := out.LaunchCounts(), ref.LaunchCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Scale(%d) launch counts = %v, want %v", factor, got, want)
	}
	for i := 1; i < len(out.Ops); i++ {
		if out.Ops[i-1].Kind == OpCPU && out.Ops[i].Kind == OpCPU {
			t.Fatalf("Scale(%d) left CPU ops %d and %d adjacent", factor, i-1, i)
		}
	}
	if want := foldCPU(ref.Ops); !reflect.DeepEqual(out.Ops, want) {
		t.Fatalf("Scale(%d) ops:\n got %v\nwant %v", factor, out.Ops, want)
	}
	return out
}

// cpuHeavyApp interleaves CPU segments of assorted lengths (zero, shorter and
// longer than the factors used) with launches of two kernels, transfers,
// syncs and back-to-back CPU segments.
func cpuHeavyApp() *App {
	a := validApp()
	a.Kernels = append(a.Kernels, validKernel())
	a.Kernels[1].Name = "k1"
	a.Ops = []Op{{Kind: OpCPU, Dur: 3}, {Kind: OpCPU, Dur: 0}, {Kind: OpH2D, Bytes: 1 << 20}}
	for i := 0; i < 60; i++ {
		a.Ops = append(a.Ops,
			Op{Kind: OpCPU, Dur: sim.Time(1 + 997*i)},
			Op{Kind: OpLaunch, Kernel: i % 2, Stream: i % 3})
		if i%7 == 0 {
			a.Ops = append(a.Ops, Op{Kind: OpCPU, Dur: sim.Microseconds(10)}, Op{Kind: OpSync})
		}
	}
	a.Ops = append(a.Ops, Op{Kind: OpCPU, Dur: 5}, Op{Kind: OpD2H, Bytes: 4096}, Op{Kind: OpCPU, Dur: 0})
	return a
}

func TestScaleFoldsAdjacentCPUOps(t *testing.T) {
	for _, f := range []int{2, 24, 1 << 20} {
		checkScale(t, cpuHeavyApp(), f)
	}
}

func TestScaleKeepsZeroCPUZero(t *testing.T) {
	a := validApp()
	a.Ops = []Op{
		{Kind: OpCPU}, {Kind: OpLaunch}, {Kind: OpCPU}, {Kind: OpLaunch}, {Kind: OpCPU}, {Kind: OpCPU},
	}
	out := checkScale(t, a, 2) // the second launch goes, so the last three CPU ops fold
	want := []Op{{Kind: OpCPU}, {Kind: OpLaunch}, {Kind: OpCPU}}
	if !reflect.DeepEqual(out.Ops, want) {
		t.Fatalf("Scale(2) ops = %v, want %v", out.Ops, want)
	}
}

func TestScaleFactorOneKeepsAdjacentCPU(t *testing.T) {
	in := cpuHeavyApp()
	for _, f := range []int{1, 0, -3} {
		checkScale(t, in, f)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Suite{Apps: []*App{validApp()}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != 1 {
		t.Fatalf("round trip lost apps")
	}
	a, b := s.Apps[0], got.Apps[0]
	if a.Name != b.Name || a.Class1 != b.Class1 || a.Class2 != b.Class2 {
		t.Errorf("metadata mismatch: %+v vs %+v", a, b)
	}
	if len(a.Kernels) != len(b.Kernels) || a.Kernels[0] != b.Kernels[0] {
		t.Errorf("kernel mismatch: %+v vs %+v", a.Kernels, b.Kernels)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("ops mismatch: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Errorf("op %d mismatch: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"empty suite":   `{"apps": []}`,
		"unknown field": `{"apps": [], "bogus": 1}`,
		"invalid app":   `{"apps": [{"name": "", "kernels": [], "ops": []}]}`,
		"bad op kind":   `{"apps": [{"name":"x","kernels":[{"name":"k","num_tbs":1,"tb_time_ns":1,"threads_per_tb":1}],"ops":[{"kind":"bogus"}],"class1":"SHORT","class2":"SHORT"}]}`,
		"bad class":     `{"apps": [{"name":"x","kernels":[{"name":"k","num_tbs":1,"tb_time_ns":1,"threads_per_tb":1}],"ops":[{"kind":"launch"}],"class1":"NOPE","class2":"SHORT"}]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestClassStringAndParse(t *testing.T) {
	for _, c := range []Class{ClassShort, ClassMedium, ClassLong, ClassUnknown} {
		parsed, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Errorf("round trip %v != %v", parsed, c)
		}
	}
	if _, err := ParseClass("NOPE"); err == nil {
		t.Error("ParseClass accepted garbage")
	}
}

func TestOpKindString(t *testing.T) {
	want := map[OpKind]string{OpCPU: "cpu", OpH2D: "h2d", OpD2H: "d2h", OpLaunch: "launch", OpSync: "sync"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestSliceKernels(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 100
	s := SliceKernels(a, 30)
	if err := s.Validate(); err != nil {
		t.Fatalf("sliced app invalid: %v", err)
	}
	// 100 TBs at 30/slice: 3 full slices + 10-TB remainder.
	if len(s.Kernels) != 2 {
		t.Fatalf("sliced kernels = %d, want 2 (full + remainder)", len(s.Kernels))
	}
	if s.Kernels[0].NumTBs != 30 || s.Kernels[1].NumTBs != 10 {
		t.Errorf("slice sizes = %d/%d, want 30/10", s.Kernels[0].NumTBs, s.Kernels[1].NumTBs)
	}
	counts := s.LaunchCounts()
	if counts[0] != 3 || counts[1] != 1 {
		t.Errorf("slice launches = %v, want [3 1]", counts)
	}
	// Total thread blocks preserved.
	total := 0
	for i, c := range counts {
		total += c * s.Kernels[i].NumTBs
	}
	if total != 100 {
		t.Errorf("sliced TBs = %d, want 100", total)
	}
	// Per-TB statistics unchanged.
	if s.Kernels[0].TBTime != a.Kernels[0].TBTime || s.Kernels[0].RegsPerTB != a.Kernels[0].RegsPerTB {
		t.Error("slicing changed per-TB statistics")
	}
}

func TestSliceKernelsExactDivision(t *testing.T) {
	a := validApp()
	a.Kernels[0].NumTBs = 60
	s := SliceKernels(a, 30)
	if len(s.Kernels) != 1 {
		t.Fatalf("kernels = %d, want 1 (no remainder)", len(s.Kernels))
	}
	if got := s.LaunchCounts()[0]; got != 2 {
		t.Errorf("launches = %d, want 2", got)
	}
}

func TestSliceKernelsNoOpWhenSmall(t *testing.T) {
	a := validApp() // 10 TBs
	s := SliceKernels(a, 30)
	if len(s.Kernels) != 1 || s.Kernels[0].NumTBs != 10 {
		t.Error("small kernel should not be sliced")
	}
	if got := s.LaunchCounts()[0]; got != 1 {
		t.Errorf("launches = %d, want 1", got)
	}
	// Zero slice size = clone.
	c := SliceKernels(a, 0)
	if len(c.Ops) != len(a.Ops) {
		t.Error("SliceKernels(0) should clone")
	}
}
