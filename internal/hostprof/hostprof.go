// Package hostprof gives the CLIs their -cpuprofile and -memprofile
// flags: host-side pprof profiles of a whole command, so that asking
// where a run's host time or memory went needs no throwaway test file.
// Profiling observes the host only; simulated results do not move.
package hostprof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths; an empty path leaves that profile off.
type Flags struct {
	cpu, mem string
	cpuFile  *os.File
}

// Register declares -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a host CPU profile of the whole command to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a host heap profile, taken at exit, to this file")
	return f
}

// Start begins the CPU profile, if one was asked for. Call it once, right
// after fs.Parse, and defer Stop when it succeeds: a command that returns
// its exit code to main leaves through that defer on every path.
func (f *Flags) Start() error {
	if f.cpu == "" {
		return nil
	}
	file, err := os.Create(f.cpu)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, reporting
// any failure on stderr.
func (f *Flags) Stop(stderr io.Writer) {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
		}
	}
	if f.mem == "" {
		return
	}
	file, err := os.Create(f.mem)
	if err != nil {
		fmt.Fprintf(stderr, "-memprofile: %v\n", err)
		return
	}
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(file); err != nil {
		fmt.Fprintf(stderr, "-memprofile: %v\n", err)
	}
	if err := file.Close(); err != nil {
		fmt.Fprintf(stderr, "-memprofile: %v\n", err)
	}
}
