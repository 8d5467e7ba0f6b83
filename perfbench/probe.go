package main

import (
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// probeRefMS fixes the unit of scaled times: they are CPU times at the
// host speed at which the probe takes exactly this long. It is close to
// what the probe took on the 2-core Xeon containers the benchmark was
// built on.
const probeRefMS = 0.4

// probeRing is a fixed random cycle over 1<<15 slots (128 KiB): the
// probe walks it, so it depends on the caches as the interpreter's and
// the server's pointer-heavy work does.
var probeRing = func() []int32 {
	const n = 1 << 15
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint32(12345)
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x % uint32(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]int32, n)
	for i := range perm {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}()

var probeSink int

// probeWarm reads all of probeRing, so that the timed walk finds it in
// the caches whatever ran before: the probe then measures the host, not
// the cache footprint of the operation before it.
func probeWarm() {
	s := int32(0)
	for _, v := range probeRing {
		s ^= v
	}
	probeSink = int(s)
}

type probeNode struct {
	l, r *probeNode
	v    int
}

func probeTree(d int) *probeNode {
	if d == 0 {
		return &probeNode{v: 1}
	}
	return &probeNode{l: probeTree(d - 1), r: probeTree(d - 1), v: d}
}

// probeWork is a fixed piece of work that does not depend on the code
// under test. It mixes the kinds of work Patty does: a walk around
// probeRing (dependent loads), then, three times over, string-keyed map
// updates, a type switch over interface values, a small tree built on
// the heap, and a sort. On its own the walk slows down less than
// Patty's code when the host is busy, and the Go-style part more; the
// mix, roughly half of each, slows down about as much as the
// workloads do.
func probeWork() {
	i, s := int32(0), 0
	for k := 0; k < 30000; k++ {
		i = probeRing[i]
		s += int(i) * k % 7
	}
	for rep := 0; rep < 3; rep++ {
		s += probeGoStyle()
	}
	probeSink = s
}

// probeGoStyle is the Go-style part of probeWork.
func probeGoStyle() int {
	m := make(map[string]int, 64)
	var vals []any
	for i := 0; i < 300; i++ {
		k := "k" + strconv.Itoa(i%97)
		m[k] += i
		if i%3 == 0 {
			vals = append(vals, i)
		} else {
			vals = append(vals, k)
		}
	}
	s := 0
	for _, v := range vals {
		switch x := v.(type) {
		case int:
			s += x
		case string:
			s += m[x]
		}
	}
	s += probeTree(7).v
	xs := make([]int, 300)
	for i := range xs {
		xs[i] = (i * 7919) % 301
	}
	sort.Ints(xs)
	return s + xs[5]
}

// threadCPU is the CPU time of the calling OS thread, to the
// nanosecond (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostProbe measures how fast the host is running. A shared host does
// not give a vCPU the same speed from one moment to the next: a fixed
// piece of work takes up to twice as long in one 50 ms stretch as in
// the next, and the share of slow stretches drifts from minute to
// minute with the neighbours' load. CPU time does not count steal, but
// it does count this. The benchmark runs the probe on its own thread,
// on the one CPU it is pinned to, before every program run (corpus) or
// job (serve), and scales the CPU times of each pass or round by the
// probe's mean over it, so that its figures follow the code under test
// rather than the neighbours.
type hostProbe struct{ samples []float64 }

// sample runs probeWork once and records its thread CPU time in ms.
func (p *hostProbe) sample() {
	runtime.LockOSThread()
	probeWarm()
	c0 := threadCPU()
	probeWork()
	p.samples = append(p.samples, ms(threadCPU()-c0))
	runtime.UnlockOSThread()
}

// probeScale converts CPU times measured alongside the probe samples
// to reference host speed: it is probeRefMS over the samples' mean (1
// without samples). Means, not medians: a slow stretch of the host
// lengthens both the probe's mean and an operation's CPU time in
// proportion to its share of the time.
func probeScale(samples []float64) float64 {
	m := mean(samples)
	if m == 0 {
		return 1
	}
	return probeRefMS / m
}
