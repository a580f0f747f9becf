//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// processStart anchors every monotonic stamp in this process; it is
// taken at package initialisation, as close to process start as Go
// code gets.
var processStart = time.Now()

// sinceStart is the monotonic wall clock, in nanoseconds since
// processStart.
func sinceStart() int64 { return int64(time.Since(processStart)) }

// processCPU is the CPU time (user+sys) this process has consumed, all
// threads included — Go's own collector and the parallel mark workers
// count, as they do for whoever pays for the machine.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU is the CPU time of the calling OS thread. The traced
// drivers lock their goroutine to its thread, so differences of this
// clock are the CPU a span consumed, undisturbed by descheduling and
// by Go's background collector threads.
func threadCPU() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(thread cpu): %v", errno))
	}
	return ts.Nano()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
