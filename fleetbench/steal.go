package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealTick is how often a window samples the host's CPU counters.
const stealTick = 100 * time.Millisecond

// stealSample is the machine's cumulative CPU time and the part of it the
// hypervisor gave to other guests (steal), in clock ticks, at an offset
// from the start of a window.
type stealSample struct {
	at           time.Duration
	steal, total uint64
}

// stealTimeline is a window's samples in time order.
type stealTimeline []stealSample

// stealMeter samples /proc/stat while a window runs.
type stealMeter struct {
	start time.Time
	stopc chan struct{}
	done  chan stealTimeline
}

func startStealMeter() *stealMeter {
	m := &stealMeter{start: time.Now(), stopc: make(chan struct{}), done: make(chan stealTimeline, 1)}
	go func() {
		var tl stealTimeline
		sample := func() {
			if steal, total, ok := readCPUStat(); ok {
				tl = append(tl, stealSample{time.Since(m.start), steal, total})
			}
		}
		sample()
		tk := time.NewTicker(stealTick)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				sample()
			case <-m.stopc:
				sample()
				m.done <- tl
				return
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the timeline.
func (m *stealMeter) stop() stealTimeline {
	close(m.stopc)
	return <-m.done
}

// readCPUStat returns the steal and total ticks of the "cpu" line of
// /proc/stat: user nice system idle iowait irq softirq steal (guest time
// is already counted in user). ok is false where the file is unreadable.
func readCPUStat() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// share returns the share of CPU time stolen over [from, to), measured
// from the last sample at or before from to the first at or after to; 0
// without samples.
func (tl stealTimeline) share(from, to time.Duration) float64 {
	if len(tl) < 2 {
		return 0
	}
	i := max(sort.Search(len(tl), func(k int) bool { return tl[k].at > from })-1, 0)
	j := min(sort.Search(len(tl), func(k int) bool { return tl[k].at >= to }), len(tl)-1)
	if j <= i {
		return 0
	}
	return ratio(float64(tl[j].steal-tl[i].steal), float64(tl[j].total-tl[i].total))
}
