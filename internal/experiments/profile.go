package experiments

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiling support shared by mcsim, mcload and mcbench, so shard
// contention (or any other hot path) is diagnosable with pprof without
// each command growing its own boilerplate.

// Profiles holds the -cpuprofile, -memprofile and -mutexprofile flag
// values (registered by Options.AddFlags).
type Profiles struct {
	CPU   string
	Mem   string
	Mutex string

	cpuFile *os.File
}

func (p *Profiles) addFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&p.Mutex, "mutexprofile", "", "write a mutex-contention profile to `file` on exit")
}

// Start begins the requested profiles. It must be paired with Stop
// (defer it right after a successful Start).
func (p *Profiles) Start() error {
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return nil
}

// Stop flushes every profile that was started. Errors are reported but
// do not abort: a missing profile should never fail the run itself.
func (p *Profiles) Stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
		p.cpuFile = nil
	}
	if p.Mem != "" {
		if err := writeProfile("allocs", p.Mem); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}
	if p.Mutex != "" {
		if err := writeProfile("mutex", p.Mutex); err != nil {
			fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
		}
		runtime.SetMutexProfileFraction(0)
	}
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if name == "allocs" {
		runtime.GC() // materialize the final heap state
	}
	return pprof.Lookup(name).WriteTo(f, 0)
}
