package interp_test

import (
	"testing"
	"time"

	"patty/internal/corpus"
	"patty/internal/interp"
)

// loadedProg is one corpus program with a machine ready to run it.
type loadedProg struct {
	p *corpus.Program
	m *interp.Machine
}

// loadCorpus builds one machine per corpus program pinned to eng and
// warms it with one run, which compiles the bytecode (VM) and faults
// in the source either way, so a timed pass measures interpretation
// alone.
func loadCorpus(tb testing.TB, eng interp.Engine) []loadedProg {
	tb.Helper()
	var loaded []loadedProg
	for _, p := range corpus.All() {
		sp, err := p.Load()
		if err != nil {
			tb.Fatal(err)
		}
		m := interp.NewMachine(sp)
		m.SetEngine(eng)
		loaded = append(loaded, loadedProg{p, m})
	}
	runPass(tb, loaded)
	return loaded
}

// runPass runs every loaded program once.
func runPass(tb testing.TB, loaded []loadedProg) {
	tb.Helper()
	for _, l := range loaded {
		if _, _, err := l.m.Run(l.p.Entry, l.p.Args(l.m), interp.Options{}); err != nil {
			tb.Fatalf("%s: %v", l.p.Name, err)
		}
	}
}

// benchCorpus runs one full pass over every corpus program per
// iteration on the given engine; the ratio between the two benchmarks
// is the pure interpretation speedup that TestVMSpeedupOverTree gates.
func benchCorpus(b *testing.B, eng interp.Engine) {
	loaded := loadCorpus(b, eng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPass(b, loaded)
	}
}

func BenchmarkEngineTree(b *testing.B) { benchCorpus(b, interp.EngineTree) }
func BenchmarkEngineVM(b *testing.B)   { benchCorpus(b, interp.EngineVM) }

// minVMSpeedup is the bytecode VM's throughput gate over the tree
// walker on the corpus.
const minVMSpeedup = 10

// TestVMSpeedupOverTree gates the VM's reason to exist: one full
// corpus pass must run at least minVMSpeedup times faster on the VM
// than on the tree walker. Each engine's time is the minimum over
// interleaved rounds, so a burst of load from elsewhere on the host
// slows one round, not the verdict.
func TestVMSpeedupOverTree(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race the ratio measures the race detector, not the VM")
	}
	engines := []interp.Engine{interp.EngineTree, interp.EngineVM}
	loaded := make([][]loadedProg, len(engines))
	best := make([]time.Duration, len(engines))
	for i, eng := range engines {
		loaded[i] = loadCorpus(t, eng)
	}
	for round := 0; round < 3; round++ {
		for i := range engines {
			t0 := time.Now()
			runPass(t, loaded[i])
			if d := time.Since(t0); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	tree, vm := best[0], best[1]
	speedup := float64(tree) / float64(vm)
	t.Logf("one corpus pass: tree %v, vm %v, speedup %.1fx (gate >= %dx)", tree, vm, speedup, minVMSpeedup)
	if speedup < minVMSpeedup {
		t.Fatalf("vm speedup %.1fx is below the %dx gate", speedup, minVMSpeedup)
	}
}
