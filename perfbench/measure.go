package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors the run clock: every stamp is monotonic nanoseconds since
// process start, so stamps taken on different goroutines compare directly.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// pacer sleeps the open-loop sender until each tick's due time. Neither
// obvious sleep fits a two-CPU run. nanosleep(2) keeps the sender's P in a
// syscall, so a worker the last burst woke waits on that P for sysmon
// instead of running; time.Sleep parks properly, but when every P is idle
// the runtime waits in epoll with millisecond resolution and wakes up to a
// millisecond late. The pacer parks on a timerfd(2) through the netpoller,
// which wakes on the exact expiry when the process is idle, and sets the
// same due time as a read deadline, which the runtime's timers honour
// promptly while the workers keep the Ps busy. Linux only.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller, so Read parks the goroutine instead of its thread.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks until the run clock reaches t.
func (p *pacer) until(t int64) error {
	for d := t - clock(); d > 0; d = t - clock() {
		// struct itimerspec: no interval, one relative expiry after d.
		spec := [4]int64{0, 0, d / 1e9, d % 1e9}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return fmt.Errorf("timerfd_settime: %w", errno)
		}
		if err := p.f.SetReadDeadline(time.Now().Add(time.Duration(d))); err != nil {
			return err
		}
		if _, err := p.f.Read(p.buf[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
	}
	return nil
}

func (p *pacer) close() { p.f.Close() }

// cpuNs is the process's user plus system CPU time (getrusage).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeSample reads one uint64 runtime metric without stopping the world.
func runtimeSample(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeap is the heap marked live by the most recent GC.
func liveHeap() uint64 { return runtimeSample("/gc/heap/live:bytes") }

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 { return runtimeSample("/gc/heap/allocs:objects") }

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs (mean of the middle pair for even
// counts); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sourceHash fingerprints the Go sources and module files under root, so
// a result can be tied to its code even where no git metadata exists.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
