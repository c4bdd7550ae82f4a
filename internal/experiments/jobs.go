package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/clp-sim/tflex/internal/kernels"
)

// Spec declaratively identifies one simulation job.
type Spec struct {
	Kernel string // benchmark name
	Config string // machine configuration: a row name of machines
	Cores  int    // composition size (TFlex configs; 0 where fixed by the config)
	Scale  int    // kernel input scale
}

// Key is the spec's unique, deterministic job identity: the name of its
// progress line, trace span and -metrics entry.
func (sp Spec) Key() string {
	if sp.Cores > 0 {
		return fmt.Sprintf("%s/%s-%dc/scale%d", sp.Kernel, sp.Config, sp.Cores, sp.Scale)
	}
	return fmt.Sprintf("%s/%s/scale%d", sp.Kernel, sp.Config, sp.Scale)
}

// job is one spec's simulation.  done closes once res and err are final.
// A failed job keeps its error: the simulator is deterministic, so
// running the spec again cannot succeed.
type job struct {
	done chan struct{}
	res  RunResult
	err  error
}

// finished reports, without waiting, whether the job has run.
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// buildKey identifies one kernel build: every job of a (kernel, scale)
// pair runs the same program.
type buildKey struct {
	kernel string
	scale  int
}

// build is one (kernel, scale) pair's kernel, built by the first job that
// needs it and shared by every later one.  The Instance is read-only: jobs
// run Init and Check on their own registers and memory, and no executor
// writes the program (kernels.TestInstanceIsReadOnly).  A failed build
// keeps its error, as a failed job does.
type build struct {
	once sync.Once
	inst *kernels.Instance
	err  error
}

// instance returns the kernel built at scale, building it on first use.
// Concurrent callers for one pair wait on the one build.
func (s *Suite) instance(kernel string, scale int) (*kernels.Instance, error) {
	key := buildKey{kernel, scale}
	s.mu.Lock()
	b := s.builds[key]
	if b == nil {
		b = &build{}
		s.builds[key] = b
	}
	s.mu.Unlock()
	b.once.Do(func() {
		k, ok := kernels.ByName(kernel)
		if !ok {
			b.err = fmt.Errorf("unknown kernel %q", kernel)
			return
		}
		b.inst, b.err = k.Build(scale)
	})
	return b.inst, b.err
}

// jobTracePID groups job spans in the trace viewer, well away from the
// simulator's proc-id process groups (which start at 0).
const jobTracePID = 1000

// Prefetch files each spec the suite has not seen as a new job, fans
// exactly those out across the worker pool, and blocks until every spec
// it was given has a result — including specs a concurrent Prefetch runs.
// Duplicate specs, and specs an earlier call filed, collapse onto one
// job.  All jobs run to completion; the returned error is the first
// failure in submission order, wrapped with its job key.
func (s *Suite) Prefetch(specs []Spec) error {
	start := time.Now()
	jobs := make([]*job, len(specs))
	var fresh []int // indices of the specs filed here
	s.mu.Lock()
	if s.epoch.IsZero() {
		s.epoch = start
		s.trace.NameProcess(jobTracePID, "jobs")
	}
	for i, sp := range specs {
		if jobs[i] = s.jobs[sp]; jobs[i] == nil {
			jobs[i] = &job{done: make(chan struct{})}
			s.jobs[sp] = jobs[i]
			fresh = append(fresh, i)
		}
	}
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(fresh))
	for ; s.tracks < workers; s.tracks++ {
		s.trace.NameThread(jobTracePID, s.tracks, fmt.Sprintf("worker%d", s.tracks))
	}
	epoch := s.epoch
	s.mu.Unlock()

	next := make(chan int)
	ran := 0 // jobs of this call finished, for the progress counter; guarded by mu
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp, j := specs[i], jobs[i]
				t0 := time.Now()
				j.res, j.err = s.simulate(sp)
				wall := time.Since(t0)
				if s.trace != nil { // else the key would be formatted for nothing
					s.trace.Span(jobTracePID, w, sp.Key(), "job",
						uint64(t0.Sub(epoch).Microseconds()), uint64(t0.Add(wall).Sub(epoch).Microseconds()))
				}
				s.mu.Lock()
				s.inJob += wall
				ran++
				if s.progress != nil {
					status := ""
					if j.err != nil {
						status = "  FAILED: " + j.err.Error()
					}
					fmt.Fprintf(s.progress, "[%*d/%d] %-40s %8.3fs%s\n",
						len(strconv.Itoa(len(fresh))), ran, len(fresh), sp.Key(), wall.Seconds(), status)
				}
				s.mu.Unlock()
				close(j.done)
			}
		}()
	}
	for _, i := range fresh {
		next <- i
	}
	close(next)
	wg.Wait()

	var first error
	for i, j := range jobs {
		<-j.done
		if j.err != nil && first == nil {
			first = fmt.Errorf("%s: %w", specs[i].Key(), j.err)
		}
	}
	s.mu.Lock()
	s.wall += time.Since(start)
	s.mu.Unlock()
	return first
}

// have is the lookup the render phase reads results through, and the one
// thing that counts a cache hit.  The spec must be covered by a
// successful Prefetch, which leaves no error to return: rendering a spec
// whose job failed, or was never filed, is a bug in the figure.
func (s *Suite) have(sp Spec) RunResult {
	s.mu.Lock()
	j := s.jobs[sp]
	s.hits++
	s.mu.Unlock()
	if j == nil || !j.finished() || j.err != nil {
		panic(fmt.Sprintf("experiments: %s rendered without a successful Prefetch", sp.Key()))
	}
	return j.res
}
