package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fuzzSeedSuite is a small but representative suite for the fuzz corpus:
// multiple apps, every op kind, an idempotent and a non-idempotent kernel.
func fuzzSeedSuite() *Suite {
	app := &App{
		Name: "seed",
		Kernels: []KernelSpec{
			{Name: "k0", NumTBs: 8, TBTime: sim.Microseconds(5), RegsPerTB: 4096,
				SharedMemPerTB: 2048, ThreadsPerTB: 256, Launches: 2, Idempotent: true},
			{Name: "k1", NumTBs: 1, TBTime: sim.Microseconds(50), RegsPerTB: 16384,
				ThreadsPerTB: 64, Launches: 1},
		},
		Ops: []Op{
			{Kind: OpCPU, Dur: sim.Microseconds(10)},
			{Kind: OpH2D, Bytes: 1 << 20, Stream: 1},
			{Kind: OpLaunch, Kernel: 0, Stream: 1},
			{Kind: OpLaunch, Kernel: 1},
			{Kind: OpSync},
			{Kind: OpLaunch, Kernel: 0},
			{Kind: OpD2H, Bytes: 4096},
		},
		Class1: ClassShort,
		Class2: ClassMedium,
	}
	return &Suite{Apps: []*App{app, app.Scale(2)}}
}

// FuzzReadJSON drives the suite decoder with mutated trace files: whatever
// the input, ReadJSON must either return a validated suite or an error —
// never panic. The corpus seeds a round-tripped real suite plus the
// malformed shapes that tripped earlier versions (a null app entry caused a
// nil dereference) and the usual JSON edge cases.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := fuzzSeedSuite().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		``,
		`{}`,
		`{"apps":[]}`,
		`{"apps":[null]}`, // the nil-app panic this fuzz target found
		`{"apps":[{}]}`,
		`{"apps":[{"name":"x","kernels":null,"ops":null}]}`,
		`{"apps":[{"name":"x","kernels":[{"name":"k","num_tbs":-1}],"ops":[{"kind":"launch"}]}]}`,
		`{"apps":[{"name":"x","kernels":[{"name":"k","num_tbs":1,"tb_time_ns":1,"threads_per_tb":1}],` +
			`"ops":[{"kind":"nope"}],"class1":"SHORT","class2":"BOGUS"}]}`,
		`{"apps":[{"name":"x","class1":7}]}`,
		`{"apps":`, // truncated
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must be a fully valid suite: re-validating and
		// round-tripping it must succeed.
		for _, a := range s.Apps {
			if a == nil {
				t.Fatal("ReadJSON returned a suite with a nil app")
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("ReadJSON returned an invalid app: %v", err)
			}
		}
		var out bytes.Buffer
		if err := s.WriteJSON(&out); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
		if _, err := ReadJSON(&out); err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
	})
}

func TestReadJSONRejectsNullApp(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"apps":[null]}`)); err == nil {
		t.Fatal("null app accepted")
	}
}

// scaleFuzzKernels is the kernel table of every app FuzzScale decodes.
var scaleFuzzKernels = []KernelSpec{
	{Name: "k0", NumTBs: 1000, TBTime: sim.Microseconds(1), ThreadsPerTB: 128, Launches: 1},
	{Name: "k1", NumTBs: 7, TBTime: sim.Microseconds(3), ThreadsPerTB: 64, Launches: 1},
	{Name: "k2", NumTBs: 1, TBTime: 1, ThreadsPerTB: 32, Launches: 1},
}

// decodeScaleInput turns fuzz bytes into a valid app and a factor in
// [1, 1<<20]. The first three bytes give the factor; each following five
// bytes give one op: a byte whose value mod 5 is the kind and whose quotient
// is the stream, then a big-endian 32-bit argument that is the CPU duration
// in ns, the transfer size less one, or the kernel index (mod the table
// size). An op sequence without a launch gets one appended.
func decodeScaleInput(data []byte) (*App, int) {
	var fb [3]byte
	n := copy(fb[:], data)
	data = data[n:]
	factor := 1 + int(uint32(fb[0])<<16|uint32(fb[1])<<8|uint32(fb[2]))%(1<<20)
	a := &App{Name: "fuzz", Kernels: append([]KernelSpec(nil), scaleFuzzKernels...)}
	launched := false
	for ; len(data) >= 5; data = data[5:] {
		op := Op{Kind: OpKind(data[0] % 5), Stream: int(data[0] / 5)}
		arg := binary.BigEndian.Uint32(data[1:5])
		switch op.Kind {
		case OpCPU:
			op.Stream, op.Dur = 0, sim.Time(arg)
		case OpH2D, OpD2H:
			op.Bytes = int64(arg) + 1
		case OpLaunch:
			op.Kernel = int(arg % uint32(len(a.Kernels)))
			launched = true
		case OpSync:
			op.Stream = 0
		}
		a.Ops = append(a.Ops, op)
	}
	if !launched {
		a.Ops = append(a.Ops, Op{Kind: OpLaunch})
	}
	return a, factor
}

// encodeScaleInput is decodeScaleInput's inverse for apps whose ops fit the
// encoding (at most three kernels, streams below 51, 32-bit arguments).
func encodeScaleInput(a *App, factor int) []byte {
	v := uint32(factor - 1)
	out := []byte{byte(v >> 16), byte(v >> 8), byte(v)}
	for _, op := range a.Ops {
		var arg uint32
		switch op.Kind {
		case OpCPU:
			arg = uint32(op.Dur)
		case OpH2D, OpD2H:
			arg = uint32(op.Bytes - 1)
		case OpLaunch:
			arg = uint32(op.Kernel)
		}
		out = append(out, byte(int(op.Kind)+5*op.Stream))
		out = binary.BigEndian.AppendUint32(out, arg)
	}
	return out
}

// lbmShapedApp has the shape of Parboil lbm: an input transfer, 100 rounds of
// a 10 us CPU segment and a launch, and an output transfer.
func lbmShapedApp() *App {
	a := &App{Name: "lbm-shaped", Kernels: scaleFuzzKernels[:1]}
	a.Ops = append(a.Ops, Op{Kind: OpH2D, Bytes: 12 << 20})
	for i := 0; i < 100; i++ {
		a.Ops = append(a.Ops, Op{Kind: OpCPU, Dur: sim.Microseconds(10)}, Op{Kind: OpLaunch})
	}
	a.Ops = append(a.Ops, Op{Kind: OpD2H, Bytes: 12 << 20})
	return a
}

// FuzzScale drives Scale with arbitrary valid op sequences and factors: the
// output must validate and equal the unfolded rewrite with adjacent CPU ops
// folded (see checkScale), or the input's ops for a factor of 1.
func FuzzScale(f *testing.F) {
	seed := fuzzSeedSuite().Apps[0]
	lbm := lbmShapedApp()
	for _, c := range []struct {
		app    *App
		factor int
	}{
		{seed, 1}, {seed, 2}, {seed, 24},
		{lbm, 1}, {lbm, 24}, {lbm, 1 << 20},
		{cpuHeavyApp(), 3},
	} {
		f.Add(encodeScaleInput(c.app, c.factor))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, factor := decodeScaleInput(data)
		checkScale(t, a, factor)
	})
}
