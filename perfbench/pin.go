package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

// pinToOneCPU re-executes the benchmark with its CPU affinity set to
// the last CPU it may use; the servers and reference runs it starts
// inherit the mask. Everything the benchmark measures then runs on the
// CPU the host probe runs on, and no thread spins waiting for one on
// another vCPU. The Go runtime of each process sees one CPU and sets
// GOMAXPROCS to 1. Where the mask cannot be read or set, the benchmark
// runs unpinned.
func pinToOneCPU() {
	if os.Getenv("PERFBENCH_CPU") != "" {
		return
	}
	var set cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
		return
	}
	cpu := -1
	for i := len(set)*64 - 1; i >= 0 && cpu < 0; i-- {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	exe, err := os.Executable()
	if cpu < 0 || err != nil {
		return
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// The mask is per thread and execve keeps the calling thread's.
	runtime.LockOSThread()
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		runtime.UnlockOSThread()
		return
	}
	syscall.Exec(exe, os.Args, append(os.Environ(), "PERFBENCH_CPU="+strconv.Itoa(cpu)))
	// Exec returned: it failed, so carry on unpinned.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	runtime.UnlockOSThread()
}
