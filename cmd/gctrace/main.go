// Command gctrace records, synthesizes, and inspects allocation traces
// (internal/workload). A trace captures a workload's full event stream —
// allocations, root updates, data accesses, pointer stores — so the
// identical mutator can be driven through any collector, any number of
// times, without the generator: record once, replay everywhere. gcsim
// replays them: its -program takes a .gctrace file.
//
// Usage:
//
//	gctrace record -o FILE [-program pseudojbb] [-collector BC]
//	               [-scale 0.25] [-seed 1] [-heap 77] [-phys 256]
//	gctrace gen    -o FILE [-model markov] [-allocs 100000] [-live 1000]
//	               [-seed 1] [-name NAME]
//	gctrace stat   FILE
//	gctrace verify FILE
//
// record runs a benchmark program once, writing the trace alongside the
// normal run, and prints the run's summary line as gcsim does: gcsim
// -program FILE under the recording's collector reproduces it exactly,
// the footer checksum cross-checking every data word against the
// original run. gen synthesizes a trace from a statistical model (markov,
// ramp, frag) that the spec table cannot express; it records no run
// geometry. stat prints a trace's structural statistics and content
// hash; verify exits non-zero unless the trace is well-formed down to
// the last byte.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bookmarkgc/internal/mem"
	"bookmarkgc/internal/mutator"
	"bookmarkgc/internal/runner"
	"bookmarkgc/internal/sim"
	"bookmarkgc/internal/trace"
	"bookmarkgc/internal/vmm"
	"bookmarkgc/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches to a subcommand and returns the exit code: 0, 1 for a
// failed operation, 2 for a command line that makes no sense.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(*flag.FlagSet, []string, io.Writer) error{
		"record": cmdRecord, "gen": cmdGen, "stat": cmdStat, "verify": cmdVerify,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintf(stderr, "usage: gctrace {record|gen|stat|verify} [flags] [FILE]\n")
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := cmds[args[0]](fs, args[1:], stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.Is(err, errFlags) {
		fmt.Fprintf(stderr, "gctrace: %v\n", err)
	}
	if errors.Is(err, errFlags) || errors.Is(err, errOneFile) {
		return 2
	}
	return 1
}

// errFlags is a flag the flag package rejected (it has printed why);
// errOneFile a missing or surplus FILE argument. Both exit 2.
var (
	errFlags   = errors.New("bad flags")
	errOneFile = errors.New("expected exactly one trace file argument")
)

// parse parses args into fs.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errFlags
	}
	return err
}

// oneFile parses args and returns the single positional FILE argument.
func oneFile(fs *flag.FlagSet, args []string) (string, error) {
	if err := parse(fs, args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", errOneFile
	}
	return fs.Arg(0), nil
}

func cmdRecord(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		out       = fs.String("o", "", "output trace file (required)")
		program   = fs.String("program", "pseudojbb", "benchmark program (see Table 1)")
		collector = fs.String("collector", "BC", "collector to run under while recording")
		scale     = fs.Float64("scale", 0.25, "scale factor applied to all byte quantities")
		seed      = fs.Int64("seed", 1, "workload seed")
		heapMB    = fs.Float64("heap", 77, "heap size in MB (paper scale)")
		physMB    = fs.Float64("phys", 256, "physical memory in MB (paper scale)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("record: -o is required")
	}
	prog, ok := mutator.ByName(*program)
	if !ok {
		return fmt.Errorf("record: unknown program %q", *program)
	}
	prog = prog.Scale(*scale)
	heap := mem.RoundUpPage(uint64(*heapMB * *scale * (1 << 20)))
	phys := mem.RoundUpPage(uint64(*physMB * *scale * (1 << 20)))
	if phys < vmm.MinPhysBytes {
		return fmt.Errorf("record: -phys %v at -scale %v is below the smallest simulable machine", *physMB, *scale)
	}

	r, err := sim.RecordTrace(*out, sim.RunConfig{
		Collector: sim.CollectorKind(*collector),
		Program:   prog, HeapBytes: heap, PhysBytes: phys,
		Seed: *seed, Counters: trace.NewCounters(),
	})
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	hash, err := workload.HashFile(*out)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	fmt.Fprintf(stdout, "recorded %s: %d events, %d allocs, %d bytes, checksum %#x\n",
		*out, r.Counters.Get(trace.CWorkloadEventsRecorded), r.Mutator.Allocations, r.Mutator.AllocatedBytes, r.Mutator.Checksum)
	fmt.Fprintf(stdout, "content hash %s\n", hash)
	fmt.Fprintln(stdout, runner.NewRunData(r).Summary(sim.CollectorKind(*collector), prog.Name))
	return nil
}

func cmdGen(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		out    = fs.String("o", "", "output trace file (required)")
		model  = fs.String("model", "markov", "synthesis model: "+strings.Join(workload.Models, ", "))
		allocs = fs.Int("allocs", 100_000, "allocation iterations to emit")
		live   = fs.Int("live", 1_000, "live-set target in objects")
		seed   = fs.Int64("seed", 1, "model PRNG seed")
		name   = fs.String("name", "", "trace name (default: the model name)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("gen: -o is required")
	}
	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = workload.Synthesize(bw, workload.SynthParams{
		Model: *model, Allocs: *allocs, Live: *live, Seed: *seed, Name: *name,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		return fmt.Errorf("gen: %w", err)
	}
	hash, err := workload.HashFile(*out)
	if err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	fmt.Fprintf(stdout, "generated %s (%s): %d allocation iterations, live target %d\n",
		*out, *model, *allocs, *live)
	fmt.Fprintf(stdout, "content hash %s\n", hash)
	return nil
}

func cmdStat(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	st, err := verifyFile(path)
	if err != nil {
		return err
	}
	hash, err := workload.HashFile(path)
	if err != nil {
		return fmt.Errorf("stat: %w", err)
	}
	m := st.Meta
	fmt.Fprintf(stdout, "%s: %q (%s), format v%d\n", path, m.Name, m.Source, m.FormatVersion)
	if m.Program != nil {
		fmt.Fprintf(stdout, "  recorded: program %s, seed %d, collector %s, heap %dB, phys %dB\n",
			m.Program.Name, m.Seed, m.Collector, m.HeapBytes, m.PhysBytes)
	}
	if len(m.Model) > 0 {
		fmt.Fprintf(stdout, "  model: %v, seed %d\n", m.Model, m.Seed)
	}
	fmt.Fprintf(stdout, "  content hash %s\n", hash)
	fmt.Fprintf(stdout, "  %d events in %d blocks, %d quantum steps\n", st.Events, st.Blocks, st.Steps)
	fmt.Fprintf(stdout, "  allocs %d (%d nodes, %d data arrays, %d ref arrays) totalling %dB\n",
		st.Allocs, st.Nodes, st.DataArrs, st.RefArrs, st.Bytes)
	fmt.Fprintf(stdout, "  %d temps, %d survivors; peak live %d objects\n", st.Temps, st.Survivors, st.PeakLive)
	fmt.Fprintf(stdout, "  lifetime p50 %d, p90 %d (allocations survived)\n", st.LifetimeP50, st.LifetimeP90)
	fmt.Fprintf(stdout, "  %d free hints, %d releases, %d nil roots\n", st.FreeHints, st.Releases, st.RootNils)
	fmt.Fprintf(stdout, "  %d links (+%d no-op), %d work reads, %d work writes\n",
		st.Links, st.LinkNops, st.WorkReads, st.WorkWrites)
	if st.Footer.HasChecksum {
		fmt.Fprintf(stdout, "  footer checksum %#x\n", st.Footer.Checksum)
	} else {
		fmt.Fprintf(stdout, "  no footer checksum (synthesized)\n")
	}
	return nil
}

func cmdVerify(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	st, err := verifyFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: OK (%d events, %d allocs, %d blocks)\n", path, st.Events, st.Allocs, st.Blocks)
	return nil
}

// verifyFile scans path end to end; any structural violation is an error.
func verifyFile(path string) (*workload.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd, err := workload.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	st, err := workload.Verify(rd)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}
