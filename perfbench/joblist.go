package main

import (
	"fmt"
	"math/rand"

	"patty/internal/corpus"
)

// Job classes of the serve-jobs workload.
const (
	classTune = "tune" // fresh tune spec: WAL append, checkpoint journal, cache inserts
	classDup  = "dup"  // comment-perturbed resubmission of a warm-up spec: a job-cache hit
	classFuzz = "fuzz" // fresh differential-fuzz batch: detect, transform and execute
)

var tenants = [2]string{"team-a", "team-b"}

// jobBody is the POST /jobs request body.
type jobBody struct {
	Kind      string            `json:"kind"`
	Sources   map[string]string `json:"sources,omitempty"`
	Algo      string            `json:"algo,omitempty"`
	Budget    int               `json:"budget,omitempty"`
	Cores     int               `json:"cores,omitempty"`
	FaultRate int               `json:"fault_rate,omitempty"`
	FaultSeed int64             `json:"fault_seed,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	N         int               `json:"n,omitempty"`
}

// tuneKey is the tune spec without its sources: a fresh `patty tune`
// run of exactly these parameters is a tune job's reference answer.
func (b jobBody) tuneKey() string {
	return fmt.Sprintf("%s/b%d/c%d/f%d/s%d", b.Algo, b.Budget, b.Cores, b.FaultRate, b.FaultSeed)
}

// job is one submission.
type job struct {
	Class  string
	Tenant string
	Body   jobBody
	// Orig indexes jobList.Originals for a dup.
	Orig int
}

// jobList is the fixed, seeded submission list of one serve-jobs run.
type jobList struct {
	// Originals are tune jobs answered during set-up; dups resubmit
	// them.
	Originals []job
	// Jobs are sent in the timed window, in this order.
	Jobs []job
}

// Shape of the list: 40% fresh tune, 40% dup, 20% fuzz in each block
// (each serve round). Fresh specs never repeat. Algo, budget (20..200
// in steps of 10) and cores (1..16) give 1216 combinations, so in a
// list of a few hundred tune specs about one in ten shares them with
// an earlier spec, as independent submitters would.
var (
	tuneAlgos    = []string{"linear", "nelder-mead", "tabu", "random"}
	tuneFaults   = []int{0, 10, 20, 40}
	numOriginals = 16
	fuzzN        = 5
)

// original is warm-up original i. The originals do not depend on the
// seed, so every run sets up with the same work: every algo with
// budgets 40 to 160, every fault rate, and the first 16 corpus
// programs.
func original(i int, programs []map[string]string) jobBody {
	return jobBody{
		Kind:      "tune",
		Sources:   programs[i%len(programs)],
		Algo:      tuneAlgos[i%len(tuneAlgos)],
		Budget:    40 * (1 + i/len(tuneAlgos)),
		Cores:     1 + (5*i)%16,
		FaultRate: tuneFaults[(i+i/len(tuneAlgos))%len(tuneFaults)],
		FaultSeed: int64(1000 + i),
	}
}

// corpusSources lists every corpus program's sources, name-sorted.
func corpusSources() []map[string]string {
	var out []map[string]string
	for _, p := range corpus.All() {
		out = append(out, map[string]string{p.Name + ".go": p.Source})
	}
	return out
}

// makeJobList derives the whole list from seed: n timed jobs in
// `blocks` consecutive blocks of the same class mix, plus the warm-up
// originals. The same (seed, n, blocks) always gives the same list.
func makeJobList(seed int64, n, blocks int, programs []map[string]string) jobList {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[string]bool)
	freshTune := func(tenant string) job {
		for {
			b := jobBody{
				Kind:      "tune",
				Sources:   programs[rng.Intn(len(programs))],
				Algo:      tuneAlgos[rng.Intn(len(tuneAlgos))],
				Budget:    20 + 10*rng.Intn(19),
				Cores:     1 + rng.Intn(16),
				FaultRate: tuneFaults[rng.Intn(len(tuneFaults))],
				FaultSeed: 1 + rng.Int63n(1<<20),
			}
			if !used[b.tuneKey()] {
				used[b.tuneKey()] = true
				return job{Class: classTune, Tenant: tenant, Body: b}
			}
		}
	}
	var l jobList
	for i := 0; i < numOriginals; i++ {
		b := original(i, programs)
		used[b.tuneKey()] = true
		l.Originals = append(l.Originals, job{Class: classTune, Tenant: tenants[i%2], Body: b})
	}

	// Each of the blocks gets the exact mix, so that every serve round
	// does the same kinds of work.
	var classes []string
	for b := 0; b < blocks; b++ {
		size := (b+1)*n/blocks - b*n/blocks
		nTune, nDup := 2*size/5, 2*size/5
		block := make([]string, 0, size)
		for i := 0; i < size; i++ {
			switch {
			case i < nTune:
				block = append(block, classTune)
			case i < nTune+nDup:
				block = append(block, classDup)
			default:
				block = append(block, classFuzz)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		classes = append(classes, block...)
	}

	fuzzSeeds := make(map[int64]bool)
	dups := 0 // dups cycle through the originals
	for i, class := range classes {
		tenant := tenants[rng.Intn(2)]
		switch class {
		case classTune:
			l.Jobs = append(l.Jobs, freshTune(tenant))
		case classDup:
			o := dups % len(l.Originals)
			dups++
			orig := l.Originals[o]
			b := orig.Body
			b.Sources = perturbComments(orig.Body.Sources, i)
			other := tenants[0]
			if orig.Tenant == other {
				other = tenants[1]
			}
			l.Jobs = append(l.Jobs, job{Class: classDup, Tenant: other, Body: b, Orig: o})
		case classFuzz:
			s := 1 + rng.Int63n(1<<40)
			for fuzzSeeds[s] {
				s = 1 + rng.Int63n(1<<40)
			}
			fuzzSeeds[s] = true
			l.Jobs = append(l.Jobs, job{Class: classFuzz, Tenant: tenant,
				Body: jobBody{Kind: "fuzz", Seed: s, N: fuzzN}})
		}
	}
	return l
}

// perturbComments returns a copy of sources with a comment line added
// before and after each file. Comments do not change a program's
// canonical hash, so the copy addresses the same job-cache entry while
// its bytes differ from the original.
func perturbComments(sources map[string]string, k int) map[string]string {
	out := make(map[string]string, len(sources))
	for name, src := range sources {
		out[name] = fmt.Sprintf("// resubmission %d: same program, new comments\n%s\n// end of resubmission %d\n", k, src, k)
	}
	return out
}
