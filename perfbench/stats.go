package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// retainedHeapMB forces a collection and returns the live heap it
// marked, in MB. The deployments only accumulate state (history,
// versions, caches) while they run, so read at a fixed point of the
// script it is the peak retained heap up to there, without the
// GC-timing noise of sampling mid-run.
func retainedHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// medianSetup runs build n times and reports the median wall time. It
// keeps the last deployment and tears the others down.
func medianSetup[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d, err := build()
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(d)
			runtime.GC() // the next set-up must not pay for this one's garbage
		} else {
			keep = d
		}
	}
	return keep, median(secs), nil
}

// hostUsage is a reading of the host's CPU time split and this
// process's CPU time. Compared over a measurement window it shows
// whether the run shared the host: steal is time the hypervisor gave
// this machine's CPUs to others.
type hostUsage struct {
	wall         time.Time
	steal, total float64 // aggregate /proc/stat cpu ticks; 0 where unavailable
	procCPU      float64 // seconds, user plus system, of this process
}

func readHostUsage() hostUsage {
	u := hostUsage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.procCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return u
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return u
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		u.total += v
		if i == 7 {
			u.steal = v
		}
	}
	return u
}

// since reports the window from prev to u for the run record.
func (u hostUsage) since(prev hostUsage) map[string]float64 {
	wall := u.wall.Sub(prev.wall).Seconds()
	return map[string]float64{
		"window_wall_s":           wall,
		"window_proc_cpu_s":       u.procCPU - prev.procCPU,
		"window_host_steal_share": ratio(u.steal-prev.steal, u.total-prev.total),
	}
}
