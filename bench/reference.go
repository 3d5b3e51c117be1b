package main

// reference.go measures how fast the machine is while a workload runs.
//
// The benchmark runs on small shared VMs whose speed is not constant: a fixed
// single-threaded loop here takes anything from 0.85 to 1.4 times its usual
// time depending on the minute (no steal time is reported; it looks like SMT
// siblings and frequency). Every time-like metric of a run moves with it —
// over 30 runs of submit_steady, CPU per placement ranged over 41 % of its
// median and the median submit over 46 %, while their ratios to a reference
// kernel timed alongside ranged over 13 % and 8 % (quartile spreads 9.9 → 4.3 %
// and 11.9 → 3.6 %). So the three gated time metrics are reported at reference
// speed: measured × refNominalUs ÷ the kernel's median time during the window.
// The raw values and the kernel's time are reported per layer.

import (
	"encoding/json"
	"fmt"
	"time"
)

const (
	// refNominalUs is the kernel's median time on the VM class the baseline
	// was measured on, in a quiet minute. It only fixes the scale of the
	// normalised metrics; it must not change once a trajectory exists.
	refNominalUs = 190.0
	refEvery     = 50 * time.Millisecond // 0.5 % of one core
	refRounds    = 3
)

// refDoc is the kernel's input: shaped like a 16-VM monitor report, declared
// here so that no change to the program can change the kernel.
type refDoc struct {
	Node string    `json:"node"`
	Used []float64 `json:"used"`
	VMs  []refVM   `json:"vms"`
}

type refVM struct {
	ID        string    `json:"id"`
	Node      string    `json:"node"`
	State     int       `json:"state"`
	Requested []float64 `json:"requested"`
	Used      []float64 `json:"used"`
}

// referenceKernel is a fixed piece of allocating, branchy, pointer-chasing
// work of the kind the program itself does: encode and decode the document.
func referenceKernel(doc *refDoc) {
	for i := 0; i < refRounds; i++ {
		data, err := json.Marshal(doc)
		if err != nil {
			panic(err) // a plain struct of strings and floats always encodes
		}
		var back refDoc
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
	}
}

// reference times the kernel every refEvery until stopped.
type reference struct {
	quit chan struct{}
	done chan []float64
}

func startReference() *reference {
	doc := &refDoc{Node: "n000", Used: []float64{25.6, 78643.2, 160, 160}}
	for i := 0; i < 16; i++ {
		doc.VMs = append(doc.VMs, refVM{
			ID: fmt.Sprintf("r%07d-0", i), Node: "n000", State: 2,
			Requested: []float64{1.6, 4915.2, 10, 10}, Used: []float64{1.6, 4915.2, 10, 10},
		})
	}
	r := &reference{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var took []float64
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.quit:
				r.done <- took
				return
			case <-tick.C:
				start := time.Now()
				referenceKernel(doc)
				took = append(took, us(time.Since(start)))
			}
		}
	}()
	return r
}

// stop ends the measurement and returns the kernel's median time in µs
// (refNominalUs when the window was too short for a single sample).
func (r *reference) stop() float64 {
	close(r.quit)
	took := <-r.done
	if len(took) == 0 {
		return refNominalUs
	}
	return median(took)
}
