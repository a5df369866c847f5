package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The gated per-request costs are CPU time, not wall time. This host is a
// small VM on a shared machine: wall time there includes the time other
// tenants hold the physical CPU (steal) and the time other processes in the
// guest hold ours, and both vary by tens of percent from one minute to the
// next. A process's CPU clock counts only the time its own threads ran,
// all threads and the garbage collector included, and the kernel keeps
// steal out of it (paravirtualized steal accounting), so it measures the
// work the program did for a request.

// cpuTime returns the CPU time consumed so far by process pid, all threads
// included (pid 0: this process), with nanosecond resolution.
func cpuTime(pid int) (time.Duration, error) {
	// The kernel's CPU clock of a whole process: MAKE_PROCESS_CPUCLOCK(pid,
	// CPUCLOCK_SCHED), what clock_getcpuclockid(3) returns.
	clock := int64(^pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// selfCPU is this process's CPU time; reading our own clock cannot fail.
func selfCPU() time.Duration {
	d, _ := cpuTime(0)
	return d
}
