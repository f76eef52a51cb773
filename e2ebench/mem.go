package main

import (
	rtmetrics "runtime/metrics"
	"time"
)

// memInterval is how often memSampler reads the runtime's memory.
const memInterval = 2 * time.Millisecond

// memSampler records the peak of the runtime's resident memory while a
// repeat runs: every byte the Go runtime has mapped (heap, stacks,
// metadata) minus the heap memory it has returned to the OS.
type memSampler struct {
	stop chan struct{}
	done chan uint64
}

func residentBytes(s []rtmetrics.Sample) uint64 {
	rtmetrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// startMemSampler starts polling; finish stops it and returns the peak.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		peak := residentBytes(s)
		t := time.NewTicker(memInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- max(peak, residentBytes(s))
				return
			case <-t.C:
				peak = max(peak, residentBytes(s))
			}
		}
	}()
	return m
}

// finish stops the sampler, waits for it and returns the peak in MiB.
func (m *memSampler) finish() float64 {
	close(m.stop)
	return float64(<-m.done) / (1 << 20)
}
